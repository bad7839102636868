"""Flag maps on P^n(F_q) and the exhaustive sweeps built on them.

A map is a flag map when some full chain of nested subspaces exists on
whose difference strata the map is constant (values may repeat across
non-adjacent strata; the constant map is a flag map through any chain).
The line criterion - constant off at most one point on every line - is
a separate verdict over the same strata (a line minus one of its points
is a stratum of every chain through that point and line), and the
sweeps compare the two verdicts over entire map spaces rather than
assuming the equivalence.

Every flag map passes the line criterion.  The converse fails over
F_2: a line of P^n(F_2) has only three points, so any map taking at
most two values on it is constant off one of them, and the line
criterion accepts every two-valued map whatever its level set.  On
P^2(F_2) the two verdicts diverge exactly on the two-valued maps whose
level set is not a flag subset (168 of the 3^7 maps); on all 3^13 maps
of P^2(F_3) they agree.

A subset of the points is its ones mask (bit i is point i of
geom.points) throughout.  The sweeps over F_2 subsets (the census, the
decomposition lemma, the coordinate maps of the collineation sweep) read
one subset table per geometry: the bad strata and the flag bit of every
subset, indexed by its ones mask and built once in bulk (subset_table).

numpy is imported only inside the bulk kernels: the subset table build,
the map sweeps of prop_equivalence_* and sampled collineation_analyze.
Importing this module does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from . import fqlin
from .errors import InvalidInput, SizeBound
from .ff import FiniteField
from .projspace import ProjGeometry, StratumTable, geometry

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class FlagVerdict:
    """Either an accepted stratum chain or a violation report.

    chain: strata (point, line minus point, ..., complement) as point
    index tuples.  witness_line is a line on which the map takes two or
    more values off every single point; when the chain search fails but
    every line is fine individually, witness_line is None and note says
    so.  That happens only over F_2, where three-point lines cannot tell
    a two-valued map with a non-flag level set from a flag map.
    """

    is_flag: bool
    chain: tuple[tuple[int, ...], ...] | None = None
    witness_line: tuple[int, ...] | None = None
    note: str = ""


# -- the flag kernel ----------------------------------------------------
#
# One primitive decides every flag and line property: "is the map
# constant on stratum k" for each stratum of the geometry's
# StratumTable, giving the set of bad strata.  A chain is flag when none
# of its strata is bad; a line passes when one of its strata "line minus
# a point" is not bad.  The scalar entry point takes per-point level
# bitmasks (from a value list or from an F_2 ones mask); the bulk entry
# point gives one boolean column per stratum for a value matrix.


def _bad_strata(table: StratumTable, level) -> int:
    """Bitmask of the strata the map is not constant on.

    level[i] is the bitmask of the points where the map takes the value
    it takes at point i.
    """
    bad = 0
    for k, (stratum, mask) in enumerate(zip(table.strata, table.masks)):
        if level[stratum[0]] & mask != mask:
            bad |= 1 << k
    return bad


def _value_levels(values) -> list[int]:
    by_value: dict = {}
    for i, v in enumerate(values):
        by_value[v] = by_value.get(v, 0) | 1 << i
    return [by_value[v] for v in values]


def _ones_levels(npts: int, ones: int) -> list[int]:
    zeros = ((1 << npts) - 1) ^ ones
    return [ones if ones >> i & 1 else zeros for i in range(npts)]


def _flag_chain(table: StratumTable, bad: int) -> int | None:
    """Index of the first chain with no bad stratum."""
    return next((c for c, ids in enumerate(table.chains) if not ids & bad), None)


def _bad_line(table: StratumTable, bad: int) -> int | None:
    """Index of the first line on which every "line minus a point" is bad."""
    return next((l for l, ids in enumerate(table.lines) if ids & bad == ids), None)


def is_flag_map(geom: ProjGeometry, values) -> FlagVerdict:
    """Decide the flag property by exhaustive chain search.

    A rejected map carries a witness line when the line criterion fails
    too.  Over F_2 a two-valued map with a non-flag level set passes the
    line criterion and is rejected with a note instead; on P^2(F_3) no
    such map exists (see prop_equivalence_exhaustive).
    """
    if len(values) != len(geom.points):
        raise InvalidInput("value list does not match the point count")
    bad = _bad_strata(geom.strata, _value_levels(values))
    chain = _flag_chain(geom.strata, bad)
    if chain is not None:
        return FlagVerdict(True, chain=geom.chains[chain])
    line = _bad_line(geom.strata, bad)
    if line is not None:
        return FlagVerdict(False, witness_line=geom.lines[line])
    return FlagVerdict(
        False, note="line criterion holds but no stratum chain exists"
    )


def line_criterion(geom: ProjGeometry, values) -> bool:
    """Whether the map is constant off at most one point on every line."""
    return _bad_line(geom.strata, _bad_strata(geom.strata, _value_levels(values))) is None


def _ids(mask: int) -> list[int]:
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _constant_bulk(table: StratumTable, vals: np.ndarray) -> np.ndarray:
    """(rows, strata) matrix: whether each row is constant on each stratum."""
    import numpy as np

    const = np.empty((len(vals), len(table.strata)), dtype=bool)
    for k, stratum in enumerate(table.strata):
        np.all(vals[:, stratum[1:]] == vals[:, stratum[:1]], axis=1, out=const[:, k])
    return const


# -- the subset table -------------------------------------------------

SUBSET_WINDOW = 16  # points; the table has 2^points rows


@dataclass(frozen=True)
class SubsetTable:
    """Per ones mask: flag[ones] says whether the subset is a flag
    subset, and bad_masks()[ones] is the bad-strata bitmask of its
    indicator map.

    The masks are kept packed, width bytes per row; only the collineation
    sweep reads them as ints, and it unpacks them for the one sweep.
    """

    flag: bytes
    packed_bad: bytes
    width: int

    def bad_masks(self) -> list[int]:
        rows, w = self.packed_bad, self.width
        return [int.from_bytes(rows[i : i + w], "little") for i in range(0, len(rows), w)]


@lru_cache(maxsize=None)
def subset_table(n: int, q: int) -> SubsetTable:
    """The subset table of P^n(F_q), built on first use and kept.

    The point count 1 + q + ... + q^n is checked first, so a refused
    geometry is never built.
    """
    npts = sum(q**i for i in range(n + 1))
    if npts > SUBSET_WINDOW:
        raise SizeBound(f"2^{npts} subsets is beyond the census window")
    geom = geometry(n, q)
    import numpy as np

    ones = np.arange(1 << npts, dtype="<u2").view(np.uint8).reshape(-1, 2)
    indicator = np.unpackbits(ones, axis=1, count=npts, bitorder="little")
    const = _constant_bulk(geom.strata, indicator)
    flag = np.zeros(len(const), dtype=bool)
    for chain in geom.strata.chains:
        flag |= const[:, _ids(chain)].all(axis=1)
    np.logical_not(const, out=const)
    packed = np.packbits(const, axis=1, bitorder="little")
    return SubsetTable(flag.tobytes(), packed.tobytes(), packed.shape[1])


def is_flag_subset(geom: ProjGeometry, ones: int) -> bool:
    return subset_table(geom.n, geom.q).flag[ones] == 1


# -- Example census ---------------------------------------------------

FAMILIES = (
    "point",
    "line",
    "punctured-line",
    "plane-minus-point",
    "plane-minus-line",
    "plane-minus-punctured-line",
)


def subset_family(geom: ProjGeometry, ones: int) -> str | None:
    """Which of the six structural families a subset of P^2 belongs to:
    a point, a line or a line minus one point, or the complement of one."""
    comp = ((1 << len(geom.points)) - 1) ^ ones
    for mask, prefix in ((ones, ""), (comp, "plane-minus-")):
        if mask.bit_count() == 1:
            return prefix + "point"
        if mask in geom.line_masks:
            return prefix + "line"
        if mask.bit_count() == geom.q and any(mask & line == mask for line in geom.line_masks):
            return prefix + "punctured-line"
    return None


@dataclass
class FlagCensus:
    q: int
    counts: dict[str, int]
    total: int
    mismatches: list  # subsets where flag verdict and family disagree


def classify_flag_subsets(q: int) -> FlagCensus:
    """Exhaustive census of nonempty proper flag subsets of P^2(F_q).

    Every subset is judged twice: by chain search on its characteristic
    function (read from the subset table) and by structural shape; the
    two must agree.  Past SUBSET_WINDOW points the census is refused
    before the geometry is built.
    """
    rows = len(subset_table(2, q).flag)  # one per subset
    geom = geometry(2, q)
    counts = {f: 0 for f in FAMILIES}
    mismatches = []
    for ones in range(1, rows - 1):
        fam = subset_family(geom, ones)
        flag = is_flag_subset(geom, ones)
        if flag != (fam is not None):
            mismatches.append((_ids(ones), fam, flag))
        if fam is not None:
            counts[fam] += 1
    return FlagCensus(q, counts, sum(counts.values()), mismatches)


# -- decomposition lemma ----------------------------------------------


@dataclass(frozen=True)
class LemmaVerdict:
    kind: str  # "holds" | "hypothesis-fails" | "counterexample-candidate"
    flag_parts: tuple[int, ...] = ()       # indices among all parts
    flag_parts_rest: tuple[int, ...] = ()  # indices excluding the distinguished part
    witness_line: tuple[int, ...] | None = None


def check_decomposition_lemma(geom: ProjGeometry, parts: list[int]) -> LemmaVerdict:
    """Check one partition (distinguished part first, each part a ones
    mask) of P^2(F_q).

    Hypothesis: every line lies in parts[0] with a single other part,
    or avoids parts[0] entirely.  When it holds, every part is tested
    for flaghood; both the any-part and the non-distinguished statistics
    are reported since the source statement is ambiguous about S_1.
    """
    npts = len(geom.points)
    if any(not p for p in parts) or len(parts) < 3:
        raise InvalidInput("need >= 3 nonempty parts")
    union = 0
    for p in parts:
        union |= p
    if union != (1 << npts) - 1 or sum(p.bit_count() for p in parts) != npts:
        raise InvalidInput("parts must partition the point set")
    first = parts[0]
    for line, mask in zip(geom.lines, geom.line_masks):
        if mask & first and not any(mask & (first | p) == mask for p in parts[1:]):
            return LemmaVerdict("hypothesis-fails", witness_line=line)
    flag_parts = tuple(k for k, p in enumerate(parts) if is_flag_subset(geom, p))
    rest = tuple(k for k in flag_parts if k != 0)
    if flag_parts:
        return LemmaVerdict("holds", flag_parts=flag_parts, flag_parts_rest=rest)
    return LemmaVerdict("counterexample-candidate")


def set_partitions(n: int):
    """All set partitions of range(n), blocks as ones masks, via
    restricted growth strings."""
    rgs = [0] * n

    def rec(i: int, top: int):
        if i == n:
            blocks = [0] * (top + 1)
            for j, b in enumerate(rgs):
                blocks[b] |= 1 << j
            yield blocks
            return
        for b in range(top + 2):
            rgs[i] = b
            yield from rec(i + 1, max(top, b))

    yield from rec(1, 0)


def sweep_decomposition_lemma(q: int = 2) -> dict:
    """Exhaustive sweep over all >=3-part colorings of P^2(F_q).

    Each set partition is examined once per choice of distinguished
    part.  Counterexample candidates (no flag part at all) are the
    violations; partitions where only the distinguished part is flag
    are tallied separately as the strict-reading statistic.
    """
    geom = geometry(2, q)
    npts = len(geom.points)
    if npts != 7:
        raise SizeBound("the exhaustive lemma sweep is sized for q = 2")
    cases = 0
    hypothesis_held = 0
    holds = 0
    strict_gap = 0  # hypothesis held, flag part exists, but none among the S_j
    candidates = []
    for blocks in set_partitions(npts):
        if len(blocks) < 3:
            continue
        for s1 in range(len(blocks)):
            parts = [blocks[s1]] + [b for k, b in enumerate(blocks) if k != s1]
            cases += 1
            v = check_decomposition_lemma(geom, parts)
            if v.kind == "hypothesis-fails":
                continue
            hypothesis_held += 1
            if v.kind == "holds":
                holds += 1
                if not v.flag_parts_rest:
                    strict_gap += 1
            else:
                candidates.append([_ids(p) for p in parts])
    return {
        "cases_total": cases,
        "hypothesis_held": hypothesis_held,
        "holds": holds,
        "strict_gap": strict_gap,
        "counterexample_candidates": candidates,
    }


# -- two-character model ----------------------------------------------


@dataclass(frozen=True)
class StarMap:
    """Map P^2(F_p) -> R x R given pointwise, R = Z/modulus."""

    p: int
    modulus: int
    pairs: tuple[tuple[int, int], ...]


def star_condition(m: StarMap, with_witness: bool = False):
    """True when every line's image lies on an affine line over R.

    Equivalent to every (value, value, 1) row matrix having rank <= 2
    over F_modulus; any nonzero kernel vector then has a nonzero linear
    part automatically, so no separate nontriviality check is needed.
    """
    geom = geometry(2, m.p)
    R = FiniteField(m.modulus)
    if len(m.pairs) != len(geom.points):
        raise InvalidInput("pair list does not match the point count")
    for line in geom.lines:
        rows = [[m.pairs[i][0] % m.modulus, m.pairs[i][1] % m.modulus, 1] for i in line]
        if fqlin.rank(R, rows) > 2:
            return (False, line) if with_witness else False
    return (True, None) if with_witness else True


@dataclass
class CollineationReport:
    p: int
    mode: str
    maps_examined: int
    star_maps: int
    max_image_size: int
    image_size_counts: dict[int, int]
    image_size_violations: list  # maps with (*) and image size > 3
    no_flag_combo_maps: int
    first_no_flag_combo: list | None  # explicit witness map (value per point)
    flag_combo_violations: list  # p > 2 only: (*) maps without any flag combination
    non_flag_star_maps: int  # (*) maps not globally flag despite being flag on lines
    first_non_flag_star: list | None  # the p = 2 model-failure exhibit


def _two_values_at_most(vals: list[int], line) -> bool:
    """The (*) test on one line: vals (in 0..3) take at most two values.

    Three distinct points of A^2(F_2) are never collinear, so this is
    star_condition's rank test for the coordinate maps P^2(F_p) -> A^2(F_2).
    """
    seen = 0
    for i in line:
        seen |= 1 << vals[i]
    return seen.bit_count() <= 2


# _ALLOWED[seen]: the values (as a bitmask) a line's last point may take
# when the line's other points take the values in the bitmask seen
_ALLOWED = tuple(sum(1 << v for v in range(4) if (seen | 1 << v).bit_count() <= 2) for seen in range(16))


def _greedy_point_order(geom: ProjGeometry) -> tuple[list[int], list[list[int]]]:
    """Point order that completes lines early, plus per-position lists of
    lines whose last point sits at that position."""
    lines = [tuple(L) for L in geom.lines]
    remaining = {i: set(L) for i, L in enumerate(lines)}
    unplaced = set(range(len(geom.points)))
    order: list[int] = []
    completed_at: list[list[int]] = []
    done: set[int] = set()
    while unplaced:
        best = min(
            unplaced,
            key=lambda pt: (
                -sum(1 for i, r in remaining.items() if i not in done and r == {pt}),
                min((len(r) for i, r in remaining.items() if i not in done and pt in r), default=99),
                pt,
            ),
        )
        order.append(best)
        unplaced.discard(best)
        newly = []
        for i, r in remaining.items():
            if i in done:
                continue
            r.discard(best)
            if not r:
                newly.append(i)
                done.add(i)
        completed_at.append(newly)
    return order, completed_at


def collineation_analyze(
    p: int, mode: str = "exhaustive", samples: int = 0, seed: int | None = None
) -> CollineationReport:
    """Sweep maps P^2(F_p) -> A^2(F_2) for the (*) line condition.

    Exhaustive for p in {2, 3} (4^7 and 4^13 maps, pruned on the first
    line with three distinct image points).  For every (*) map the
    image size and the existence of a flag F_2-combination of the two
    coordinate maps are recorded.  The coordinate maps and their sum
    are F_2 subsets, judged by the subset table; sampled mode past
    SUBSET_WINDOW points judges them with the scalar kernel instead.
    """
    geom = geometry(2, p)
    npts = len(geom.points)
    table = geom.strata
    lines = geom.lines

    image_size_counts: dict[int, int] = {}
    image_viol = []
    star_count = 0
    no_combo = 0
    first_no_combo = None
    combo_viol = []
    non_flag_star = 0
    first_non_flag = None

    if npts <= SUBSET_WINDOW:
        subsets = subset_table(2, p)
        bad_of, flag_of = subsets.bad_masks().__getitem__, subsets.flag.__getitem__
    else:

        def bad_of(ones: int) -> int:
            return _bad_strata(table, _ones_levels(npts, ones))

        def flag_of(ones: int) -> bool:
            return _flag_chain(table, bad_of(ones)) is not None

    pair_flag: dict[int, bool] = {}  # pair verdict by the union of the coordinates' bad strata

    def analyse(vals: list[int], m1: int, m2: int, used: int) -> None:
        # one (*) map with coordinate ones masks m1, m2 and value set used,
        # recorded as the sweep accepts it
        nonlocal star_count, no_combo, first_no_combo, non_flag_star, first_non_flag
        star_count += 1
        img = used.bit_count()
        image_size_counts[img] = image_size_counts.get(img, 0) + 1
        if img > 3:
            image_viol.append(list(vals))
        if not (flag_of(m1) or flag_of(m2) or flag_of(m1 ^ m2)):
            no_combo += 1
            if first_no_combo is None:
                first_no_combo = list(vals)
            if p != 2:
                combo_viol.append(list(vals))
        # the pair map is constant on a stratum when both coordinates are
        pair = bad_of(m1) | bad_of(m2)
        flag = pair_flag.get(pair)
        if flag is None:
            flag = pair_flag[pair] = _flag_chain(table, pair) is not None
        if not flag:
            non_flag_star += 1
            if first_non_flag is None:
                first_non_flag = list(vals)

    if mode == "exhaustive":
        if p not in (2, 3):
            raise SizeBound("exhaustive collineation sweep supports p in {2, 3}")
        order, completed_at = _greedy_point_order(geom)
        # per position: the earlier points of each line completed there
        others = [[[i for i in lines[li] if i != pt] for li in completed_at[pos]] for pos, pt in enumerate(order)]
        vals = [0] * npts

        def dfs(pos: int, m1: int, m2: int, used: int) -> None:
            if pos == npts:
                analyse(vals, m1, m2, used)
                return
            allowed = 15
            for line in others[pos]:
                seen = 0
                for i in line:
                    seen |= 1 << vals[i]
                allowed &= _ALLOWED[seen]
            pt = order[pos]
            bit = 1 << pt
            for v in range(4):
                if allowed >> v & 1:
                    vals[pt] = v
                    dfs(pos + 1, m1 | bit if v & 1 else m1, m2 | bit if v & 2 else m2, used | 1 << v)

        dfs(0, 0, 0, 0)
        maps_examined = 4**npts
    elif mode == "sampled":
        if seed is None:
            raise InvalidInput("sampled mode requires a seed")
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(seed))
        maps_examined = samples
        for _ in range(samples):
            vals = [int(v) for v in rng.integers(0, 4, npts)]
            if all(_two_values_at_most(vals, L) for L in lines):
                m1 = sum(1 << i for i, v in enumerate(vals) if v & 1)
                m2 = sum(1 << i for i, v in enumerate(vals) if v & 2)
                analyse(vals, m1, m2, sum({1 << v for v in vals}))
    else:
        raise InvalidInput(f"unknown mode {mode!r}")

    return CollineationReport(
        p=p,
        mode=mode,
        maps_examined=maps_examined,
        star_maps=star_count,
        max_image_size=max(image_size_counts, default=0),
        image_size_counts=image_size_counts,
        image_size_violations=image_viol,
        no_flag_combo_maps=no_combo,
        first_no_flag_combo=first_no_combo,
        flag_combo_violations=combo_viol,
        non_flag_star_maps=non_flag_star,
        first_non_flag_star=first_non_flag,
    )


# -- bulk equivalence sweeps ------------------------------------------


_BULK_ROWS = 8192  # rows per block: bounds the (rows, strata) matrix near 2 MB


def _verdicts_bulk(geom: ProjGeometry, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (line criterion, chain flag) verdicts over a (rows, points) value matrix."""
    import numpy as np

    table = geom.strata
    chains = [_ids(c) for c in table.chains]
    lines = [_ids(l) for l in table.lines]
    line_ok = np.ones(len(vals), dtype=bool)
    chain_ok = np.zeros(len(vals), dtype=bool)
    for lo in range(0, len(vals), _BULK_ROWS):
        rows = slice(lo, lo + _BULK_ROWS)
        const = _constant_bulk(table, vals[rows])
        for ids in lines:
            line_ok[rows] &= const[:, ids].any(axis=1)
        for ids in chains:
            chain_ok[rows] |= const[:, ids].all(axis=1)
    return line_ok, chain_ok


def _compare_verdicts(geom: ProjGeometry, vals: np.ndarray) -> dict:
    """Line criterion vs chain search on every row of a value matrix."""
    import numpy as np

    line_ok, chain_ok = _verdicts_bulk(geom, vals)
    mism = np.nonzero(line_ok != chain_ok)[0]
    witnesses = [[int(x) for x in vals[i]] for i in mism[:5]]
    return {
        "cases_total": len(vals),
        "line_ok": int(line_ok.sum()),
        "chain_flag": int(chain_ok.sum()),
        "mismatches": int(len(mism)),
        "mismatch_direction_line_only": int((line_ok & ~chain_ok).sum()),
        "mismatch_direction_chain_only": int((chain_ok & ~line_ok).sum()),
        "witnesses": witnesses,
    }


def prop_equivalence_exhaustive(n: int, q: int) -> dict:
    """All maps P^n(F_q) -> {0,1,2}: chain verdict vs line criterion.

    The sweep holds every map in memory at once, so it refuses spaces
    with more than 13 points (3^13 = 1,594,323 maps, P^2(F_3)).
    """
    import numpy as np

    geom = geometry(n, q)
    npts = len(geom.points)
    if npts > 13:
        raise SizeBound(f"3^{npts} maps is beyond the exhaustive window (3^13)")
    total = 3**npts
    codes = np.arange(total)
    vals = np.empty((total, npts), dtype=np.int8)
    for i in range(npts):
        vals[:, i] = codes % 3
        codes = codes // 3
    return _compare_verdicts(geom, vals)


def prop_equivalence_exhaustive_q2() -> dict:
    """All 3^7 maps P^2(F_2) -> {0,1,2}: chain verdict vs line criterion."""
    return prop_equivalence_exhaustive(2, 2)


def prop_equivalence_random(n: int, q: int, count: int, seed: int) -> dict:
    """Random maps P^n(F_q) -> {0,1,2}: chain verdict vs line criterion."""
    import numpy as np

    geom = geometry(n, q)
    rng = np.random.Generator(np.random.PCG64(seed))
    vals = rng.integers(0, 3, size=(count, len(geom.points)), dtype=np.int8)
    return _compare_verdicts(geom, vals)
