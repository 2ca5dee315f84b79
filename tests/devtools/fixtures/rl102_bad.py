"""RL102 fixture: broad handlers that swallow what they catch."""


def swallows_silently(risky):
    try:
        risky()
    except Exception:  # line 7: silent pass
        pass


def swallows_base(risky):
    try:
        risky()
    except BaseException:  # line 14: eats CancelledError/KeyboardInterrupt
        return None


def swallows_bare(risky):
    try:
        risky()
    except:  # noqa: E722  # line 21: bare except without re-raise
        return None


def binds_but_never_uses(risky):
    try:
        risky()
    except Exception as exc:  # line 28: bound name never referenced
        return None
