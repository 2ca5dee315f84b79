"""Exact-repair Regenerating Codes via product-matrix constructions.

The paper implements *functional* repair with random linear codes and
cites Wu, Dimakis & Ramchandran [9] for deterministic constructions.
The clean deterministic constructions that emerged from that line are
the product-matrix codes (Rashmi, Shah & Kumar): the file is arranged
into a structured *message matrix* M and node i stores ``psi_i^T M``
for an encoding vector psi_i.  Repairs are **exact** -- the regenerated
piece is bit-identical to the lost one -- and need **no stored
coefficients** at all, eliminating the overhead of section 4.1.

Two constructions:

**PM-MBR(n, k, d)** (minimum bandwidth, any k <= d < n):
  M is d x d symmetric: ``[[S, T], [T^T, 0]]`` with S k x k symmetric.
  Message size B = k d - k(k-1)/2 -- exactly the paper's n_file at
  i = k - 1, so this code sits on the same (storage, repair) point as
  the random-linear MBR code.  psi_i is a Vandermonde row, node i
  stores the d-symbol vector psi_i^T M, a repair helper j sends the
  single symbol psi_j^T M psi_f, and the newcomer solves a d x d system.

**PM-MSR(n, k, d = 2k-2)** (minimum storage):
  M stacks two symmetric (k-1) x (k-1) matrices S1, S2;
  psi_i = [phi_i, lambda_i phi_i] with phi_i Vandermonde and
  lambda_i = x_i^(k-1).  Node i stores the (k-1)-symbol piece
  phi_i^T S1 + lambda_i phi_i^T S2; helpers send psi_j^T M phi_f.

Each field "symbol" here is a length-L vector of elements (the file is
L parallel stripes), so all operations vectorize over stripes.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.codes.base import (
    Block,
    EncodedObject,
    ReconstructError,
    RedundancyScheme,
    RepairError,
    RepairOutcome,
    pad_to_matrix,
)
from repro.gf import linalg
from repro.gf.field import GF, GaloisField

__all__ = ["ProductMatrixMBR", "ProductMatrixMSR"]


def _tensor_matmul(field: GaloisField, matrix: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """``matrix @ tensor`` where tensor is (r, c, L) of stripe symbols."""
    flat = linalg.gf_matmul(field, matrix, tensor.reshape(tensor.shape[0], -1))
    return flat.reshape(matrix.shape[0], *tensor.shape[1:])


class _ProductMatrixBase(RedundancyScheme):
    """Shared machinery: point selection, striping, (de)padding."""

    def __init__(self, n: int, k: int, d: int, field: GaloisField | None = None):
        if not 1 <= k <= d < n:
            raise ValueError(f"need 1 <= k <= d < n, got n={n}, k={k}, d={d}")
        self.field = field if field is not None else GF(16)
        if n >= self.field.order:
            raise ValueError(
                f"n={n} nodes need n distinct non-zero points in GF(2^{self.field.q})"
            )
        self.n = n
        self.k = k
        self.d = d
        # Distinct non-zero evaluation points; subclasses may add checks.
        self.points = self.field.asarray(np.arange(1, n + 1))

    # -- subclass contract ------------------------------------------------

    #: Message symbols per stripe.
    message_size: int
    #: Stored symbols per node per stripe (the code's alpha).
    piece_symbols: int

    @property
    def total_blocks(self) -> int:
        return self.n

    @property
    def reconstruction_degree(self) -> int:
        return self.k

    @property
    def repair_degree(self) -> int:
        return self.d

    # -- striping ----------------------------------------------------------

    def _stripes(self, data: bytes) -> np.ndarray:
        """Pad and reshape the file into (B, L) message symbols.

        Stripe ``s`` is the ``s``-th run of B consecutive elements, so the
        padded elements are read as (L, B) and transposed.
        """
        padded = pad_to_matrix(self.field, data, self.message_size)
        return padded.reshape(-1, self.message_size).T.copy()

    def _unstripe(self, message: np.ndarray, file_size: int) -> bytes:
        data = self.field.elements_to_bytes(message.T.reshape(-1))
        return data[:file_size]

    def _block(self, index: int, piece: np.ndarray) -> Block:
        return Block(
            index=index,
            content=piece,
            payload_bytes=piece.size * self.field.element_size,
        )

    # -- generic life cycle pieces ------------------------------------------

    def encode(self, data: bytes) -> EncodedObject:
        stripes = self._stripes(data)
        message = self._message_matrix(stripes)
        blocks = tuple(
            self._block(index, _tensor_matmul(self.field, self._psi(index)[None, :], message)[0])
            for index in range(self.n)
        )
        return EncodedObject(
            blocks=blocks, file_size=len(data), meta={"stripes": stripes.shape[1]}
        )

    def repair(
        self, encoded: EncodedObject, available: Mapping[int, Block], lost_index: int
    ) -> RepairOutcome:
        """Exact repair: d helpers each send one stripe-symbol."""
        if not 0 <= lost_index < self.n:
            raise RepairError(f"no block slot {lost_index}")
        survivors = sorted(index for index in available if index != lost_index)
        if len(survivors) < self.d:
            raise RepairError(
                f"repair needs d={self.d} helpers, only {len(survivors)} survive"
            )
        helpers = survivors[: self.d]
        target = self._repair_target_vector(lost_index)
        symbols = np.stack(
            [
                self.field.linear_combination(target, available[index].content)
                for index in helpers
            ]
        )
        piece = self._finish_repair(helpers, symbols, lost_index)
        element_bytes = symbols.shape[1] * self.field.element_size
        uploaded = {index: element_bytes for index in helpers}
        return RepairOutcome(
            block=self._block(lost_index, piece),
            participants=tuple(helpers),
            uploaded_per_participant=uploaded,
        )

    # -- subclass hooks ------------------------------------------------------

    def _psi(self, index: int) -> np.ndarray:
        raise NotImplementedError

    def _message_matrix(self, stripes: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _repair_target_vector(self, lost_index: int) -> np.ndarray:
        """The vector v with helpers sending (their piece) . v."""
        raise NotImplementedError

    def _finish_repair(
        self, helpers: list[int], symbols: np.ndarray, lost_index: int
    ) -> np.ndarray:
        raise NotImplementedError


class ProductMatrixMBR(_ProductMatrixBase):
    """Exact-repair minimum-bandwidth regenerating code PM-MBR(n, k, d)."""

    name = "pm-mbr"

    def __init__(self, n: int, k: int, d: int, field: GaloisField | None = None):
        super().__init__(n, k, d, field)
        self.message_size = k * d - k * (k - 1) // 2
        self.piece_symbols = d
        self.name = f"pm-mbr(n={n},k={k},d={d})"
        self.psi = np.stack([self._vandermonde_row(point) for point in self.points])

    def _vandermonde_row(self, point) -> np.ndarray:
        row = self.field.zeros(self.d)
        value = self.field.dtype.type(1)
        for power in range(self.d):
            row[power] = value
            value = self.field.multiply(value, point)
        return row

    def _psi(self, index: int) -> np.ndarray:
        return self.psi[index]

    def _message_matrix(self, stripes: np.ndarray) -> np.ndarray:
        """M = [[S, T], [T^T, 0]], S symmetric k x k, T k x (d-k)."""
        k, d = self.k, self.d
        stripe_count = stripes.shape[1]
        matrix = self.field.zeros((d, d, stripe_count))
        cursor = 0
        for row in range(k):  # S: upper triangle incl. diagonal
            for col in range(row, k):
                matrix[row, col] = stripes[cursor]
                matrix[col, row] = stripes[cursor]
                cursor += 1
        for row in range(k):  # T and its transpose
            for col in range(k, d):
                matrix[row, col] = stripes[cursor]
                matrix[col, row] = stripes[cursor]
                cursor += 1
        assert cursor == self.message_size
        return matrix

    def _repair_target_vector(self, lost_index: int) -> np.ndarray:
        return self.psi[lost_index]

    def _finish_repair(
        self, helpers: list[int], symbols: np.ndarray, lost_index: int
    ) -> np.ndarray:
        """Solve Psi_helpers x = symbols for x = M psi_f = the lost piece."""
        system = self.psi[helpers]
        try:
            inverse = linalg.inverse(self.field, system)
        except linalg.LinAlgError as exc:  # cannot happen for Vandermonde
            raise RepairError(f"singular helper matrix: {exc}") from exc
        return _tensor_matmul(self.field, inverse, symbols)

    def reconstruct(self, encoded: EncodedObject, blocks: list[Block]) -> bytes:
        """Decode S from Phi and T from the trailing columns (RSK)."""
        unique = {block.index: block for block in blocks}
        if len(unique) < self.k:
            raise ReconstructError(
                f"PM-MBR needs {self.k} distinct blocks, got {len(unique)}"
            )
        chosen = sorted(unique.values(), key=lambda block: block.index)[: self.k]
        indices = [block.index for block in chosen]
        collected = np.stack([block.content for block in chosen])  # (k, d, L)
        phi = self.psi[indices][:, : self.k]
        delta = self.psi[indices][:, self.k :]
        phi_inverse = linalg.inverse(self.field, phi)
        # Second block: Phi T = collected[:, k:]  ->  T.
        t_matrix = _tensor_matmul(self.field, phi_inverse, collected[:, self.k :])
        # First block: Phi S + Delta T^T = collected[:, :k]  ->  S.
        t_transpose = t_matrix.transpose(1, 0, 2)
        correction = (
            _tensor_matmul(self.field, delta, t_transpose)
            if self.d > self.k
            else self.field.zeros(collected[:, : self.k].shape)
        )
        s_matrix = _tensor_matmul(
            self.field, phi_inverse, self.field.add(collected[:, : self.k], correction)
        )
        # Re-read the message symbols in fill order.
        stripes = []
        for row in range(self.k):
            for col in range(row, self.k):
                stripes.append(s_matrix[row, col])
        for row in range(self.k):
            for col in range(self.k, self.d):
                stripes.append(t_matrix[row, col - self.k])
        message = np.stack(stripes)
        return self._unstripe(message, encoded.file_size)


class ProductMatrixMSR(_ProductMatrixBase):
    """Exact-repair minimum-storage regenerating code PM-MSR(n, k, 2k-2)."""

    name = "pm-msr"

    def __init__(self, n: int, k: int, field: GaloisField | None = None):
        if k < 2:
            raise ValueError("PM-MSR needs k >= 2")
        super().__init__(n, k, 2 * k - 2, field)
        self.alpha = k - 1
        self.message_size = k * (k - 1)
        self.piece_symbols = self.alpha
        self.name = f"pm-msr(n={n},k={k},d={self.d})"
        self.phi = np.stack([self._phi_row(point) for point in self.points])
        self.lambdas = self.field.power(self.points, self.k - 1)
        if len(set(int(v) for v in self.lambdas)) != self.n:
            raise ValueError(
                "evaluation points give colliding lambda = x^(k-1) values; "
                "use a larger field or different n"
            )
        # psi_i = [phi_i, lambda_i * phi_i]
        self.psi = np.concatenate(
            [self.phi, self.field.multiply(self.lambdas[:, None], self.phi)], axis=1
        )

    def _phi_row(self, point) -> np.ndarray:
        row = self.field.zeros(self.alpha)
        value = self.field.dtype.type(1)
        for power in range(self.alpha):
            row[power] = value
            value = self.field.multiply(value, point)
        return row

    def _psi(self, index: int) -> np.ndarray:
        return self.psi[index]

    def _message_matrix(self, stripes: np.ndarray) -> np.ndarray:
        """M = [[S1], [S2]]: two stacked symmetric (k-1) x (k-1) matrices."""
        size = self.alpha
        stripe_count = stripes.shape[1]
        matrix = self.field.zeros((self.d, size, stripe_count))
        cursor = 0
        for block in range(2):
            offset = block * size
            for row in range(size):
                for col in range(row, size):
                    matrix[offset + row, col] = stripes[cursor]
                    matrix[offset + col, row] = stripes[cursor]
                    cursor += 1
        assert cursor == self.message_size
        return matrix

    def _repair_target_vector(self, lost_index: int) -> np.ndarray:
        return self.phi[lost_index]

    def _finish_repair(
        self, helpers: list[int], symbols: np.ndarray, lost_index: int
    ) -> np.ndarray:
        """Solve for M phi_f, then combine with lambda_f."""
        system = self.psi[helpers]
        try:
            inverse = linalg.inverse(self.field, system)
        except linalg.LinAlgError as exc:
            raise RepairError(f"singular helper matrix: {exc}") from exc
        m_phi = _tensor_matmul(self.field, inverse, symbols)  # (2(k-1), L)
        s1_phi = m_phi[: self.alpha]
        s2_phi = m_phi[self.alpha :]
        return self.field.add(
            s1_phi, self.field.multiply(self.lambdas[lost_index], s2_phi)
        )

    def reconstruct(self, encoded: EncodedObject, blocks: list[Block]) -> bytes:
        """RSK decoding from any k nodes.

        With P the k collected pieces, C = P Phi^T satisfies
        C = A + diag(lambda) B for symmetric A = Phi S1 Phi^T and
        B = Phi S2 Phi^T; the off-diagonal pairs (C_ij, C_ji) solve for
        A_ij, B_ij, after which each S column follows from a (k-1)
        Vandermonde solve.
        """
        unique = {block.index: block for block in blocks}
        if len(unique) < self.k:
            raise ReconstructError(
                f"PM-MSR needs {self.k} distinct blocks, got {len(unique)}"
            )
        chosen = sorted(unique.values(), key=lambda block: block.index)[: self.k]
        indices = [block.index for block in chosen]
        collected = np.stack([block.content for block in chosen])  # (k, alpha, L)
        stripe_count = collected.shape[2]
        phi = self.phi[indices]  # (k, alpha)
        lambdas = self.lambdas[indices]
        # C = P Phi^T: C[i, j] = <piece_i, phi_j>.
        c_matrix = self.field.zeros((self.k, self.k, stripe_count))
        for i in range(self.k):
            for j in range(self.k):
                c_matrix[i, j] = self.field.linear_combination(phi[j], collected[i])
        # Off-diagonal recovery of A and B.
        a_matrix = self.field.zeros((self.k, self.k, stripe_count))
        b_matrix = self.field.zeros((self.k, self.k, stripe_count))
        for i in range(self.k):
            for j in range(i + 1, self.k):
                denominator = self.field.add(lambdas[i], lambdas[j])
                if denominator == 0:
                    raise ReconstructError(
                        "colliding lambda values prevent decoding"
                    )
                # C_ij = A_ij + lambda_i B_ij ; C_ji = A_ij + lambda_j B_ij.
                difference = self.field.add(c_matrix[i, j], c_matrix[j, i])
                b_value = self.field.divide(difference, denominator)
                a_value = self.field.add(
                    c_matrix[i, j], self.field.multiply(lambdas[i], b_value)
                )
                a_matrix[i, j] = a_value
                a_matrix[j, i] = a_value
                b_matrix[i, j] = b_value
                b_matrix[j, i] = b_value
        s1 = self._solve_symmetric(phi, a_matrix, stripe_count)
        s2 = self._solve_symmetric(phi, b_matrix, stripe_count)
        stripes = []
        for source in (s1, s2):
            for row in range(self.alpha):
                for col in range(row, self.alpha):
                    stripes.append(source[row, col])
        message = np.stack(stripes)
        return self._unstripe(message, encoded.file_size)

    def _solve_symmetric(
        self, phi: np.ndarray, gram: np.ndarray, stripe_count: int
    ) -> np.ndarray:
        """Recover symmetric S from the off-diagonal of Phi S Phi^T.

        For each node i, the known values phi_j^T (S phi_i), j != i,
        form a (k-1)-dimensional Vandermonde system for z_i = S phi_i;
        stacking k - 1 of the z vectors gives S = Z inv(Phi_sub)^T...
        solved here column-wise.
        """
        z_vectors = self.field.zeros((self.k, self.alpha, stripe_count))
        for i in range(self.k):
            others = [j for j in range(self.k) if j != i][: self.alpha]
            system = phi[others]  # (alpha, alpha) Vandermonde subset
            inverse = linalg.inverse(self.field, system)
            rhs = np.stack([gram[j, i] for j in others])  # (alpha, L)
            z_vectors[i] = _tensor_matmul(self.field, inverse, rhs)
        # S [phi_0 ... phi_{alpha-1}]^T... : use the first alpha nodes:
        # z_i = S phi_i  ->  S = Z_stack inv(Phi_stack)^T applied per row.
        phi_stack = phi[: self.alpha]  # (alpha, alpha)
        inverse = linalg.inverse(self.field, phi_stack)
        # S columns: S = (inv(Phi_stack) @ Z_rows)?  We have z_i^T = phi_i^T S^T
        # = phi_i^T S, so stacking z_i^T rows gives Phi_stack S -> solve.
        z_rows = z_vectors[: self.alpha]  # (alpha, alpha, L): row i = z_i
        return _tensor_matmul(self.field, inverse, z_rows)
