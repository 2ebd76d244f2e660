"""The difference connection of the quantum KZ system.

An instance fixes n base points, one word per point, and a central charge K;
the step of the difference connection is kappa*h with kappa = K + N.  Each
connection operator nabla_i is an ordered product of two-word R-matrices
evaluated at differences of base points, acting on the full fiber.
"""

from __future__ import annotations

from .errors import ShapeMismatch
from .families import ArgShift, RMatrixFamily
from .hseries import HSeries
from .reps import build_braiding, build_rvw, shift_add, shift_sub
from .scalar import Scalar
from .tensor import LegMatrix, LegShape, least_grade

#: injectable faults: controls that must make a check fail
FAULTS = ("drop-step-shift",)


class QKZInstance:
    """n base points z (ArgShifts), one word per point and a central
    charge K.  Two memos are filled on demand: nabla builds each connection
    operator once per index and point tuple, and factor each evaluated
    R^{j,i}(off) placed on the fiber once per (j, i, off), so the flatness,
    equivariance and quasiclassical rows share both."""

    __slots__ = ("nf", "z", "words", "K", "_nablas", "_factors")

    def __init__(self, nf: RMatrixFamily, z: tuple, words: tuple, K: HSeries):
        if len(z) != len(words):
            raise ShapeMismatch("one word per base point required")
        if K.truncation != nf.D:
            raise ShapeMismatch("central charge has wrong truncation")
        self.nf = nf
        self.z = z  # ArgShift per point
        self.words = words  # ComoduleWord per point
        self.K = K
        self._nablas = {}  # (i, point tuple) -> nabla_i, filled by nabla
        self._factors = {}  # (j, i, offset) -> R^{j,i}, filled by factor

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def kappa(self) -> HSeries:
        return self.K + HSeries.constant(self.nf.N, self.nf.D)

    @property
    def kappa_h(self) -> HSeries:
        """The step kappa * h of the difference connection."""
        return (self.kappa * HSeries.h(self.nf.D)).positive_part()

    def fiber_shape(self) -> LegShape:
        return LegShape([self.nf.N] * sum(len(w) for w in self.words))

    def block_legs(self, i: int) -> tuple:
        """1-based fiber legs of block i (1-based)."""
        start = sum(len(w) for w in self.words[: i - 1])
        return tuple(range(start + 1, start + len(self.words[i - 1]) + 1))

    def check_regular(self):
        """Pairwise regularity of R and R^{-1} at all base-point
        differences; raises on a pole or a non-invertible value."""
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                if i == j:
                    continue
                off = shift_sub(self.z[j - 1], self.z[i - 1], self.nf.mode)
                m = build_rvw(
                    self.nf, self.words[j - 1], self.words[i - 1], off,
                    value=True,
                )
                m.inv()

    def nabla(self, i: int, z=None) -> LegMatrix:
        """build_nabla(self, i, z), built once per index and point tuple."""
        key = (i, self.z if z is None else z)
        if key not in self._nablas:
            self._nablas[key] = build_nabla(self, i, z)
        return self._nablas[key]

    def factor(self, j: int, i: int, off: ArgShift) -> LegMatrix:
        """R^{j,i}(off) evaluated and placed on blocks j and i of the fiber,
        built once per (j, i, off)."""
        key = (j, i, off)
        if key not in self._factors:
            self._factors[key] = build_rvw(
                self.nf, self.words[j - 1], self.words[i - 1], off, value=True
            ).embed(self.fiber_shape(), self.block_legs(j) + self.block_legs(i))
        return self._factors[key]

    def swapped(self, i: int) -> "QKZInstance":
        """The instance with points/words i and i+1 exchanged."""
        z = list(self.z)
        words = list(self.words)
        z[i - 1], z[i] = z[i], z[i - 1]
        words[i - 1], words[i] = words[i], words[i - 1]
        return QKZInstance(self.nf, tuple(z), tuple(words), self.K)


def _z_step(z, i: int, step: HSeries):
    """z with z_i displaced by -step (an h-series additive displacement)."""
    out = list(z)
    zi = out[i - 1]
    out[i - 1] = ArgShift(zi.const, zi.hpart - step)
    return tuple(out)


def build_nabla(inst: QKZInstance, i: int, z=None) -> LegMatrix:
    """The i-th connection operator on the full fiber:

    R^{i-1,i}(z_{i-1}-z_i+kappa h) ... R^{1,i}(z_1-z_i+kappa h)
      * R^{n,i}(z_n-z_i) ... R^{i+1,i}(z_{i+1}-z_i).
    """
    nf = inst.nf
    if z is None:
        z = inst.z
    big = inst.fiber_shape()
    kh = ArgShift.of_h(inst.kappa_h, nf.mode)

    def factor(j, shifted):
        off = shift_sub(z[j - 1], z[i - 1], nf.mode)
        if shifted:
            off = shift_add(off, kh, nf.mode)
        return inst.factor(j, i, off)

    order = [(j, True) for j in range(i - 1, 0, -1)]
    order += [(j, False) for j in range(inst.n, i, -1)]
    return LegMatrix.product(
        (factor(j, shifted) for j, shifted in order), big, nf.D, nf.mode
    )


def check_flatness(inst: QKZInstance, drop_step_shift: bool = False):
    """All pairwise flatness residuals
    nabla_j(z - kappa h e_i) nabla_i(z) - nabla_i(z - kappa h e_j) nabla_j(z)
    over index pairs i < j; returns the least first nonzero grade, or None.

    drop_step_shift takes the outer factor of the right product at z
    instead of the stepped point, leaving an uncancelled derivative term at
    h-grade 2 (the control of fault "drop-step-shift", which must fail).
    """
    kh = inst.kappa_h
    plain = {i: inst.nabla(i) for i in range(1, inst.n + 1)}
    grades = []
    for i in range(1, inst.n + 1):
        for j in range(i + 1, inst.n + 1):
            zi = _z_step(inst.z, i, kh)
            zj = inst.z if drop_step_shift else _z_step(inst.z, j, kh)
            lhs = inst.nabla(j, zi) * plain[i]
            rhs = inst.nabla(i, zj) * plain[j]
            grades.append((lhs - rhs).first_nonzero_grade())
    return least_grade(grades)


def check_commutativity_at_zero_step(inst: QKZInstance):
    """With K = -N the step vanishes and flatness degenerates to
    commutativity of the nabla's at a fixed base point: each flatness
    residual is minus a commutator.  Returns the least first nonzero grade
    of the commutators, or None."""
    nf = inst.nf
    return check_flatness(
        QKZInstance(nf, inst.z, inst.words, HSeries.constant(-nf.N, nf.D))
    )


def check_translation_invariance(inst: QKZInstance, off: ArgShift):
    """Displacing every base point by the same amount off leaves each
    nabla_i unchanged; returns the least first nonzero grade of the
    differences, or None."""
    moved = tuple(shift_add(zi, off, inst.nf.mode) for zi in inst.z)
    return least_grade(
        (inst.nabla(i, moved) - inst.nabla(i)).first_nonzero_grade()
        for i in range(1, inst.n + 1)
    )


def check_braiding_equivariance(inst: QKZInstance, i: int):
    """nabla_i(z) = beta_{i,i+1}^{-1} ... beta_{n-1,n}^{-1} nabla_n(z')
    beta_{n-1,n} ... beta_{i,i+1}, where each beta swaps the block holding
    V^i one step to the right and z' carries z_i to the last slot.

    Returns the first nonzero grade of C_left nabla_i(z) - nabla_n(z')
    C_right, C the braiding products, or None.  That is the difference
    times C_left, whose h^0 grade (a product of h^0 braidings) is a
    permutation, so the first nonzero grade is kept with no inverse taken.
    """
    nf = inst.nf
    n = inst.n
    if i == n:
        return None

    def conjugator(start):
        # product beta_{n-1,n} ... beta_{i,i+1} bubbling block i rightward
        cur = start
        conj = None
        for k in range(i, n):
            off = shift_sub(cur.z[k - 1], cur.z[k], nf.mode)
            b = build_braiding(
                nf, cur.words[k - 1], cur.words[k], off, value=True
            ).embed(
                cur.fiber_shape(), cur.block_legs(k) + cur.block_legs(k + 1)
            )
            conj = b if conj is None else b * conj
            cur = cur.swapped(k)
        return conj, cur

    # the inverse conjugation acts on the target fiber, which sits over the
    # stepped base point, so its braidings see z_i displaced by -kappa h
    stepped = QKZInstance(
        nf, _z_step(inst.z, i, inst.kappa_h), inst.words, inst.K
    )
    conj_left, _ = conjugator(stepped)
    conj_right, cur = conjugator(inst)
    lhs = conj_left * inst.nabla(i)
    return (lhs - cur.nabla(n) * conj_right).first_nonzero_grade()


def quasiclassical_limit(inst: QKZInstance, i: int) -> LegMatrix:
    """The h^1 grade of nabla_i as a grade-0 matrix; build_nabla's leading
    behavior is 1 + h * sum of classical terms."""
    return inst.nabla(i).grade_matrix(1)


def check_quasiclassical(inst: QKZInstance):
    """For every index i, the h^1 grade of nabla_i equals the sum over
    j != i of the h^1 grades of R^{ji}(z_j - z_i) -- the step shift kappa h
    only enters at grade 2.  Returns 1, the grade compared, when some
    difference is nonzero, or None."""
    mode = inst.nf.mode
    for i in range(1, inst.n + 1):
        diff = quasiclassical_limit(inst, i)
        for j in range(1, inst.n + 1):
            if j != i:
                off = shift_sub(inst.z[j - 1], inst.z[i - 1], mode)
                diff = diff - inst.factor(j, i, off).grade_matrix(1)
        if not diff.is_zero:
            return 1
    return None


def residual_qkz(inst: QKZInstance, fmap, i: int):
    """Residual F(z - kappa h e_i) - nabla_i(z) F(z) of a candidate
    solution; fmap maps a z-tuple to a fiber vector (list of Scalars)."""
    z_next = _z_step(inst.z, i, inst.kappa_h)
    f_here = fmap(inst.z)
    f_next = fmap(z_next)
    total = inst.fiber_shape().total
    if len(f_here) != total or len(f_next) != total:
        raise ShapeMismatch("fiber vector has wrong length")
    nv = inst.nabla(i).apply(f_here)
    return [a - b for a, b in zip(f_next, nv)]


def first_order_solution(inst: QKZInstance, i: int, v):
    """A candidate solution correct to h-grade 1 for equation i: F is v at
    the base point and, at the stepped point, v plus h times the
    quasiclassical grade of nabla_i applied to v.

    Returns an fmap suitable for residual_qkz; the residual of equation i
    is then zero at grades 0 and 1 and generically nonzero at grade 2.
    """
    stepped = _z_step(inst.z, i, inst.kappa_h)
    a1 = inst.nabla(i).grade_matrix(1)
    h = Scalar.from_hseries(HSeries.h(inst.nf.D), inst.nf.mode)
    f_next = [x + y * h for x, y in zip(v, a1.apply(v))]

    def fmap(z):
        return f_next if z == stepped else list(v)

    return fmap
