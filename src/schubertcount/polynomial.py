"""Exact sparse multivariate polynomial arithmetic over Python integers.

A polynomial is a dict from exponent tuples to nonzero integer coefficients.
The monomial order used everywhere (leading terms, canonical text, square root)
is graded lexicographic: total degree first, then the exponent tuple,
largest first.  All arithmetic is exact; there are no modular or floating
shortcuts.  Products of powers of small factors go through `kronecker_product`,
which plans and prices them once (`packed_layout`) and packs one int.
"""

import itertools
from collections import namedtuple
from collections.abc import Iterable, Sequence
from math import gcd, isqrt, log10, prod
from operator import add, floordiv, itemgetter, le, mod, mul, sub

from .combinatorics import OutOfDomain

ExponentVector = tuple[int, ...]


class ArityMismatch(ValueError):
    """Operands disagree on the number of variables."""


class NotAPerfectSquare(ValueError):
    """Polynomial has no exact polynomial square root over the integers."""


def grlex_key(e: ExponentVector) -> tuple[int, ExponentVector]:
    return (sum(e), e)


class SparsePoly:
    """Immutable sparse polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Iterable[tuple[Sequence[int], int]] = ()):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        clean: dict[ExponentVector, int] = {}
        for e, c in dict(terms).items():
            e = tuple(int(x) for x in e)
            if len(e) != nvars:
                raise ArityMismatch(f"exponent {e} has length {len(e)}, expected {nvars}")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            c = int(c)
            if c:
                clean[e] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, nvars: int, terms: dict[ExponentVector, int]) -> "SparsePoly":
        """Internal constructor: terms are already clean (no zeros, right arity)."""
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("SparsePoly is immutable")

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls._raw(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "SparsePoly":
        return cls._raw(nvars, {(0,) * nvars: 1})

    @classmethod
    def linear_form(cls, coeffs: Sequence[int]) -> "SparsePoly":
        """c_1 x_1 + ... + c_k x_k from a coefficient vector."""
        k = len(coeffs)
        terms: dict[ExponentVector, int] = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * k
                e[i] = 1
                terms[tuple(e)] = int(c)
        return cls._raw(k, terms)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def leading_term(self) -> tuple[ExponentVector, int]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def sorted_terms(self) -> list[tuple[ExponentVector, int]]:
        """Terms in descending graded-lex order (the canonical order)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    # -- ring operations ---------------------------------------------------

    def _check_arity(self, other: "SparsePoly") -> None:
        if self.nvars != other.nvars:
            raise ArityMismatch(f"{self.nvars} variables vs {other.nvars}")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_arity(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            v = acc.get(e, 0) + c
            if v:
                acc[e] = v
            else:
                acc.pop(e, None)
        return SparsePoly._raw(self.nvars, acc)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def scale(self, c: int) -> "SparsePoly":
        if not c:
            return SparsePoly.zero(self.nvars)
        return SparsePoly._raw(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_arity(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return SparsePoly.zero(self.nvars)
        acc: dict[ExponentVector, int] = {}
        get = acc.get
        items_b = list(b.items())
        for e1, c1 in a.items():
            for e2, c2 in items_b:
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
        acc = {e: c for e, c in acc.items() if c}
        return SparsePoly._raw(self.nvars, acc)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "SparsePoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = SparsePoly.one(self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- text ----------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: graded-lex order, `coeff*x1^e1*...*xk^ek`."""
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.sorted_terms():
            vars_part = "*".join(f"x{i + 1}^{x}" for i, x in enumerate(e))
            chunks.append(f"{c}*{vars_part}" if vars_part else str(c))
        return " + ".join(chunks)

    def __repr__(self) -> str:
        text = self.to_text()
        if len(text) > 60:
            text = text[:57] + "..."
        return f"SparsePoly({self.nvars}, {text})"


# the budgets of one packed product, priced by `packed_layout`: the work, live slots times kept terms times
# slot bytes summed over the copies of the factors (0.5-2.0 ns a unit on a 2-vCPU VM, README), and the peak,
# 8 times the largest live state (complex (11,4): 785 MiB priced, 576 MiB max-RSS)
MAX_WORK = 10**11
MAX_PEAK_BYTES = 1 << 31
# dead rows are cut once they are 1/CUT_SHARE of the live rows, and only where the terms still to come times the
# rows cut are at least CUT_TERMS times the live rows, since a cut makes about two terms' passes over the state
# (in process on a 2-vCPU VM, cutting at 1/8 took 15-23% less time than cutting every dead row on real (7,3),
# real (21,2) and cubic-ci -r 200; CUT_TERMS keeps the 4 one-row cuts of complex (11,2), on 7 slots, out)
CUT_SHARE = 8
CUT_TERMS = 2


class Layout(namedtuple("Layout", "scalar low step total reads terms hi pad radix stride nslots widths width drops "
                                  "signed work peak")):
    """The plan of one packed product, made by `packed_layout` before anything is built.  The degree fixes
    the first axis, so `hi`, `pad`, `radix` and `stride` run over the other axes, the slotted ones."""

    __slots__ = ()

    def index(self, e: ExponentVector) -> int:
        return sum(map(mul, e[1:], self.stride))

    def masks(self, width: int, drop: int = 0) -> tuple[int, int, int]:
        """The bias O, the mask `box` of the slots inside hi and O & box, at slots of B = 8*width bits, on
        the slots left once the lowest `drop` rows of the outer slotted axis are shifted out.  O is 2^(B-1) in each slot where the slots are signed (some kept coefficient is negative: real
        counts, real `lambda` and `cubic-ci`), and 0 where they are unsigned (complex counts, the
        complex `lambda` product and both incidence regimes)."""
        box = b"\xff" * width
        for h, s in zip(reversed(self.hi), reversed(self.pad)):
            box = box * (h + 1) + bytes(len(box) * s)
        if drop:
            box = box[drop * self.stride[0] * width:]
        if not self.signed:
            return 0, int.from_bytes(box, "little"), 0
        bias = int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * (len(box) // width), "little")
        box = int.from_bytes(box, "little")
        return bias, box, bias & box


def packed_layout(factors: Sequence[tuple[SparsePoly, int]], nvars: int,
                  targets: Sequence[ExponentVector] | None = None) -> Layout | None:
    """The Layout of `kronecker_product(factors, nvars, targets)`, or None if
    every coefficient asked for is 0.  Every factor has nvars variables and
    every target nvars exponents (ArityMismatch otherwise), and every factor
    is homogeneous (ValueError otherwise), checked before anything is laid
    out.  Each pair (f, m) is reduced once: c*x^e goes into the scalar and
    the shift `low`, any other f is h(x^step), `step` the gcd of every
    exponent of every such f (or 1), and target t reads x^((t - low)/step) in
    prod h^m, or 0 where that is negative, fractional or not of the degree
    `total` of prod h^m; m = 0 contributes 1.  The degree fixes the first
    axis, so the box runs over the other axes, the slotted ones (one slot
    where nvars <= 1).  Terms past hi (the largest target exponent, or the
    full degree) are dropped, and slotted axis a has radix hi_a + 1 + pad_a,
    pad_a its largest exponent after the first copy (none in an open box); a
    factor with no term left makes every coefficient 0.  The runs (h, m) go in
    by their reach, the largest exponent of their kept terms on the outer
    slotted axis (stride[0]), largest first and ties in the given order.  Each
    copy's kept terms are laid out once per run as (slot offset, coefficient)
    in `terms`, and `signed` says whether any kept coefficient is negative.
    `widths` holds the slot bytes while each copy of h is multiplied in,
    bit_length + 1 of the running product of their l1 norms in whole bytes, at
    least doubled where it grows, capped at `width`.  `drops` holds the outer
    rows shifted out after each copy: a row below lo - (the reach of the
    copies still to come), lo the lowest outer row read, can reach no read,
    and the dead rows are cut once they are 1/CUT_SHARE of the live ones and,
    times the terms still to come, CUT_TERMS times the live ones (an open box
    reads every row and drops none).  The run is priced from them:
    copy j multiplies live_j = nslots - stride[0] * drops[j-1] slots, work =
    sum of live_j * kept terms * width over the copies, peak = 8 * max of
    live_j * width, and it is refused (OutOfDomain) above MAX_WORK or
    MAX_PEAK_BYTES.  A lower bound on that work is checked first, before the
    copies are laid out, on the nslots - stride[0] * lo slots that every copy
    multiplies at least: copy j of a run (h, m) after A bits of runs before it
    has a running norm of 2^(A + j*b) or more, b = bit_length(l1 norm of h) -
    1 >= 1, so (A + j*b + 2)/8 bytes."""
    factors = [(f, m) for f, m in factors if m]
    if any(f.nvars != nvars for f, _ in factors) or any(len(t) != nvars for t in targets or ()):
        raise ArityMismatch(f"factors and targets must have {nvars} variables")
    multi = [(f, m) for f, m in factors if len(f.terms) != 1]
    if any(len({sum(e) for e in f.terms}) > 1 for f, _ in multi):
        raise ValueError("every factor of a packed product must be homogeneous")
    if not all(f for f, _ in multi):
        return None
    singles = [(f, m) for f, m in factors if len(f.terms) == 1]
    low = tuple(sum(m * e[a] for f, m in singles for e in f.terms) for a in range(nvars))
    step = gcd(*(x for f, _ in multi for e in f.terms for x in e)) or 1
    steps = (step,) * nvars
    hs = [({tuple(map(floordiv, e, steps)): c for e, c in f.terms.items()}, m) for f, m in multi]
    total, reads = sum(m * sum(next(iter(h))) for h, m in hs), {}
    if targets is None:
        hi = [sum(m * max(e[a] for e in h) for h, m in hs) for a in range(1, nvars)]
    else:
        for t in targets:
            s = tuple(map(sub, t, low))
            if min(s, default=0) >= 0 and sum(s) == step * total and not any(map(mod, s, steps)):
                reads[t] = tuple(map(floordiv, s, steps))
        if not reads:
            return None
        hi = [max(u[a] for u in reads.values()) for a in range(1, nvars)]
    kept = []
    for h, m in hs:
        terms = [(e, c) for e, c in h.items() if all(map(le, e[1:], hi))]
        if not terms:
            return None
        kept.append((max([e[1] for e, _ in terms]) if nvars > 1 else 0, terms, m, sum(map(abs, h.values()))))
    # the runs that reach furthest on the outer slotted axis go first, so the rows below every read die soonest
    kept.sort(key=itemgetter(0), reverse=True)
    later = [terms for j, (_, terms, m, _) in enumerate(kept) if j or m > 1] if targets is not None else []
    pad = [max((e[a] for terms in later for e, _ in terms), default=0) for a in range(1, nvars)]
    radix = [h + 1 + s for h, s in zip(hi, pad)]
    stride, nslots = [prod(radix[i + 1:]) for i in range(len(radix))], prod(radix)
    row = stride[0] if stride else 1
    lo = min(u[1] for u in reads.values()) if nvars > 1 and targets is not None else 0
    copies, bits, least, rest, left = 0, 0, 0, 0, 0
    for r, terms, m, norm in kept:
        b = norm.bit_length() - 1
        least += len(terms) * (m * (bits + 2) + b * m * (m + 1) // 2)
        copies, bits, rest, left = copies + m, bits + m * b, rest + m * r, left + m * len(terms)
    fewest = nslots - lo * row
    if fewest * least > 8 * MAX_WORK:
        raise OutOfDomain(f"the packed product of 10^{log10(copies):.1f} copies on 10^{log10(fewest):.1f} slots takes "
                          f"10^{log10(fewest * least // 8):.1f} units of work or more, above {MAX_WORK:.0e}")
    width = (prod(norm**m for _, _, m, norm in kept).bit_length() + 8) // 8
    # after each copy the rows below lo - (the reach of the copies still to come) are dead
    widths, drops, w, d, bound, work, live, most = [], [], 1, 0, 1, 0, nslots, nslots
    for r, terms, m, norm in kept:
        n = len(terms)
        for _ in range(m):
            bound *= norm
            need = (bound.bit_length() + 8) // 8
            if need > w:
                w = min(max(need, 2 * w), width)
                most = max(most, live * w)
            work += live * n * w
            rest -= r
            left -= n
            dead = lo - rest - d
            if dead > 0 and dead * CUT_SHARE >= radix[0] - d and dead * left >= CUT_TERMS * (radix[0] - d):
                d += dead
                live = nslots - row * d
            widths.append(w)
            drops.append(d)
    slotted = [([(sum(map(mul, e[1:], stride)), c) for e, c in terms], m) for _, terms, m, _ in kept]
    terms = [terms for terms, m in slotted for _ in range(m)]
    peak = 8 * most
    if work > MAX_WORK or peak > MAX_PEAK_BYTES:
        raise OutOfDomain(f"the packed product would take 10^{log10(work or 1):.1f} units of work and "
                          f"10^{log10(peak):.1f} bytes at its peak, above {MAX_WORK:.0e} or {MAX_PEAK_BYTES >> 20} MiB")
    signed = any(c < 0 for _, terms, _, _ in kept for _, c in terms)
    scalar = prod(c**m for f, m in singles for c in f.terms.values())
    return Layout(scalar, low, step, total, reads, terms, hi, pad, radix, stride, nslots, widths, width, drops, signed,
                  work, peak)


def kronecker_product(factors: Sequence[tuple[SparsePoly, int]], nvars: int,
                      targets: Sequence[ExponentVector] | None = None) -> dict[ExponentVector, int]:
    """Coefficients of the product of the f^m over the pairs (f, m) of
    homogeneous factors at `targets` (every nonzero one if None) by Kronecker
    substitution into one Python int, on the box and widths that
    `packed_layout` plans and prices.  A monomial x^u of the h's is a B-bit
    slot at offset index(u), and each kept term c*x^u is planned once as
    (offset, c): the state S starts as 1, and each copy of h maps it to the
    sum of c*S << B*offset, a bare shift where c is 1 and no shift at offset
    0.  The bias O of `Layout.masks` comes from the kept coefficients: with
    none negative the slots are unsigned and O is 0; otherwise each slot is
    signed, and the repack and the decode add O.  After each copy one clear
    drops what lands in the padding past hi and shifts out the rows newly
    dead in `drops`: S + O, shifted right by cut = B * stride[0] * (rows newly
    dead) with O, box and O & box, then & box, less O & box.  S is biased
    before the shift, since a plain S >> cut would floor a negative dropped
    row into the row above it; where O is 0 it is neither added nor
    subtracted.  A box without padding (an open box) that drops no row skips
    the clear.  The offsets do not change; the repack and the decode take the
    live slots, and a read at u takes slot index(u) - stride[0] * (rows
    dropped).  S is repacked where the schedule widens."""
    out = {} if targets is None else dict.fromkeys(targets, 0)
    layout = packed_layout(factors, nvars, targets)
    if layout is None:
        return out
    index, state, w, dropped = layout.index, 1, (layout.widths or [layout.width])[0], 0
    row = layout.stride[0] if layout.stride else 1
    bias, box, inner = layout.masks(w)
    clear = any(layout.pad)  # no term lands past hi in a box without padding
    for width, terms, drop in zip(layout.widths, layout.terms, layout.drops):
        if width > w:
            live = layout.nslots - row * dropped
            raw = (state + bias if bias else state).to_bytes(live * w, "little")
            del state, bias, box, inner
            buf = bytearray(live * width)
            for b in range(w):
                buf[b::width] = raw[b::w]
            del raw
            bias, box, inner = layout.masks(width, dropped)
            state = int.from_bytes(buf, "little")
            del buf
            if bias:
                state -= bias >> 8 * (width - w)
            w = width
        bits, acc = 8 * w, None
        for x, c in terms:
            term = state << bits * x if x else state
            if c != 1:
                term = c * term
            acc = term if acc is None else acc + term
        # free the old state before the clear; the last term lives on until the next copy's first one, which
        # keeps glibc from trimming the heap's top and faulting it back in (cubic-ci -r 1000: 4.3x fewer faults)
        state = None
        if clear or drop > dropped:
            if bias:
                acc += bias
            if drop > dropped:
                cut = bits * row * (drop - dropped)
                acc >>= cut
                bias >>= cut
                box >>= cut
                inner >>= cut
                dropped = drop
            acc &= box
            if bias:
                acc -= inner
        state, acc = acc, None
    skip = row * dropped
    raw = (state + bias if bias else state).to_bytes((layout.nslots - skip) * w, "little")
    state = None
    half = 1 << (8 * w - 1) if layout.signed else 0
    scalar, low, step = layout.scalar, layout.low, layout.step
    if targets is not None:
        return out | {t: scalar * (int.from_bytes(raw[(x := (index(u) - skip) * w):x + w], "little") - half)
                      for t, u in layout.reads.items()}
    zero = half.to_bytes(w, "little")
    images = itertools.product(*(range(x, x + step * n, step) for x, n in zip(low[1:], layout.radix)))
    first = low[0] + step * layout.total if nvars else 0
    for x, (e, image) in enumerate(zip(itertools.product(*map(range, layout.radix)), images)):
        chunk = raw[x * w:(x + 1) * w]
        if chunk != zero:
            out[(first - step * sum(e),) + image if nvars else ()] = scalar * (int.from_bytes(chunk, "little") - half)
    return out


def product_of_linear_forms(rows: Sequence[Sequence[int]], nvars: int) -> SparsePoly:
    """Exact product of the linear forms given by coefficient vectors (the
    empty product is 1): one `kronecker_product` with an open box, which has
    no padding slots."""
    return SparsePoly._raw(nvars, kronecker_product([(SparsePoly.linear_form(row), 1) for row in rows], nvars))


def exact_sqrt(f: SparsePoly) -> SparsePoly:
    """Exact polynomial square root, normalized to a positive leading coefficient.

    Works term by term in descending graded-lex order: with r the partial
    root and s its leading term, the leading term of f - r^2 is exactly
    2*s*t where t is the next term of the true root, so t is recovered by
    one monomial division.  Any failed divisibility, a negative or
    non-square leading coefficient, an odd leading exponent, or a stalled
    order all certify that f is not a perfect square.
    """
    if f.is_zero():
        raise ValueError("square root of the zero polynomial is excluded")
    le, lc = f.leading_term()
    if lc < 0:
        raise NotAPerfectSquare("negative leading coefficient")
    s = isqrt(lc)
    if s * s != lc:
        raise NotAPerfectSquare(f"leading coefficient {lc} is not a square")
    if any(x % 2 for x in le):
        raise NotAPerfectSquare(f"leading exponent {le} is odd")
    lead = tuple(x // 2 for x in le)
    root: dict[ExponentVector, int] = {lead: s}
    res = dict(f.terms)
    del res[le]
    twice = 2 * s
    prev = grlex_key(lead)
    while res:
        me = max(res, key=grlex_key)
        mc = res[me]
        te = tuple(map(sub, me, lead))
        if any(x < 0 for x in te):
            raise NotAPerfectSquare(f"residual term {me} outside the root's span")
        tc, r = divmod(mc, twice)
        if r:
            raise NotAPerfectSquare(f"residual coefficient {mc} not divisible by {twice}")
        key = grlex_key(te)
        if key >= prev:
            raise NotAPerfectSquare("root terms stopped decreasing")
        prev = key
        # maintain res = f - root^2: with t now in root, subtract 2*t*(root - t) + t^2
        root[te] = tc
        for e2, c2 in root.items():
            e = tuple(map(add, te, e2))
            v = res.get(e, 0) - tc * (c2 if e2 == te else 2 * c2)
            if v:
                res[e] = v
            else:
                res.pop(e, None)
    return SparsePoly._raw(f.nvars, root)
