"""Recovering a valuation from a multiplicative map between function
field unit groups.

Given psi: K*/k* -> L*/l* that sends one-dimensional subfields into
one-dimensional subfields, the non-injective case hides a valuation:
the unit group is assembled from lines on which psi is injective, and
the quotient by it is an ordered group.  This module makes that
pipeline executable on a finite window (the arena): build psi from a
divisorial curve valuation (f goes to the residue of its unit part, as
the curve's `unit_residue` gives it), decompose subspaces by image
dependence, collect the unit universe, and extract the quotient with
its order certified by flag behavior on every catalog line.  psi is
evaluated as the product of its generator images over the divisor
form, so it is a homomorphism on K*/k* by construction.

Extraction evaluates psi once per catalog class and once per plane
point; the checks of the theorem's conclusions evaluate it again on
the elements they sample.  `_collect_point_classes` holds the image of
every class, and the unit universe and the extraction routes read that
table.  A plane's decomposition reads the images of its line points
from its own point images: up to a constant, which psi ignores,
fi + c*fj and f + c are points of the same plane.

All verdicts are arena-relative; the window parameters are recorded in
every report, and anything that falls outside the window is counted in
the report flags rather than silently dropped.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from functools import cache, cached_property

from .errors import (
    ClosureFailure,
    DependenceBoundTooSmall,
    FactoringWindowExceeded,
    InvalidInput,
    OrderFailure,
    PreconditionFailed,
)
from .ff import FiniteField
from .fields import (
    INF,
    DivisorRep,
    RationalFn,
    _divisor_with_den,
    algebraically_dependent,
    from_divisor,
    to_divisor,
)
from .flagkit import line_criterion
from .intlin import RowLattice
from .poly import factor, irreducible_canonicals_bivariate, monic_irreducibles
from .projspace import EmbeddedSubspace, normalize_coords
from .valuations import DivisorialCurve

# bidegree bound of the annihilator search behind the image relation
DEP_BOUND = 4


def _one_variable_degree(d: DivisorRep) -> tuple[int, int] | None:
    """(slot, degree) of a class whose generators all lie in one variable
    of its domain, with degree max(deg num, deg den) read off the
    exponents.  None when the generators use more than one variable, or,
    in a one-variable domain, when the INF exponent contradicts the
    degrees (the bookkeeping `from_divisor` checks)."""
    slots: set = set()
    pos = neg = 0
    for g, e in d.exps.items():
        if g == INF:
            continue
        slots.update(i for m in g.coeffs for i, k in enumerate(m) if k)
        if e > 0:
            pos += e * g.degree()
        else:
            neg -= e * g.degree()
    if len(d.vars) == 1 and d.exponent(INF) != neg - pos:
        return None
    return (slots.pop(), max(pos, neg)) if len(slots) == 1 else None


def _related(a: DivisorRep, b: DivisorRep, bound: int) -> bool:
    """Image relation: do a and b have an annihilator of bidegree
    <= (bound, bound)?

    A trivial class relates to everything (constants are algebraically
    dependent with any element), and so does a class to itself.  Two
    classes in one and the same variable, of degrees m and n with
    max(m, n) <= bound, are related with no search: the resultant
    Res_x(fd(x) U - fn(x), gd(x) V - gn(x)) is a nonzero annihilator of
    bidegree <= (n, m), so the search would find one.  That rule only
    ever answers "dependent"; every other pair, and so every
    "independent" answer, comes from the bounded dependence search."""
    if a.is_trivial() or b.is_trivial():
        return True
    if a.class_key() == b.class_key():
        return True
    da, db = _one_variable_degree(a), _one_variable_degree(b)
    if da and db and da[0] == db[0] and max(da[1], db[1]) <= bound:
        return True
    return bool(algebraically_dependent(from_divisor(a), from_divisor(b), bound))


# -- psi maps ----------------------------------------------------------


class PsiMap:
    """Multiplicative map K*/k* -> L*/l*, given by a table of images of
    the canonical irreducible generators: the class of f goes to the
    product of image(g)**e over the divisor of f.  Generators absent
    from the table go to the trivial class, and units are dropped, since
    psi lives on K*/k*."""

    def __init__(
        self, images: dict, target_field: FiniteField, target_vars: tuple[str, ...]
    ) -> None:
        self.images = dict(images)
        self.target_field = target_field
        self.target_vars = target_vars

    def image(self, g) -> DivisorRep | None:
        """Image of one generator; None stands for the trivial class."""
        return self.images.get(g)

    def _exponents(self, d: DivisorRep) -> dict:
        """The exponents of the product of image(g)**e over d, zeros
        dropped."""
        exps: dict = {}
        for g, e in d.exps.items():
            img = self.image(g)
            if img is not None:
                for h, k in img.exps.items():
                    exps[h] = exps.get(h, 0) + e * k
        return {h: k for h, k in exps.items() if k}

    def evaluate(self, f) -> DivisorRep:
        d = f if isinstance(f, DivisorRep) else to_divisor(f)
        return DivisorRep(self.target_field, self.target_vars, self._exponents(d))


class ValuationPsi(PsiMap):
    """psi(f) = embed(r) for the residue r of the unit part of f at the
    divisorial valuation of a graph curve pi = 0.  The curve's
    `unit_residue` splits the value off f, and psi kills it.

    The table is filled lazily: the formula runs once per generator, so
    it holds at most the generators of the window.  Its images are
    validated as `_embed_residue` builds them, so `evaluate` sums their
    exponents on the trusted `DivisorRep._make` route.  An f whose
    divisor lies beyond the factoring window is evaluated by the formula
    directly.
    """

    def __init__(
        self,
        place: DivisorialCurve,
        embed: dict[str, str],
        target_field: FiniteField,
        target_vars: tuple[str, ...],
    ) -> None:
        super().__init__({}, target_field, target_vars)
        self.place = place
        self.embed = dict(embed)

    def _embed_residue(self, r: RationalFn) -> DivisorRep:
        # factor in the residue variable first: univariate factoring has
        # no degree window, and a one-variable irreducible stays
        # irreducible and canonical when renamed into the target
        tvars = self.target_vars
        d = to_divisor(r)
        idx = tvars.index(self.embed[r.vars[0]])
        exps = {}
        for g, e in d.exps.items():
            if g == INF:
                continue
            exps[g.map_vars(tvars, {0: idx})] = e
        return DivisorRep(self.target_field, tvars, exps, d.unit)

    def formula(self, f: RationalFn) -> DivisorRep:
        """The residue formula on f itself."""
        return self._embed_residue(self.place.unit_residue(f)[1])

    def image(self, g) -> DivisorRep:
        img = self.images.get(g)
        if img is None:
            img = self.images[g] = self.formula(RationalFn.from_poly(g))
        return img

    def evaluate(self, f) -> DivisorRep:
        try:
            d = f if isinstance(f, DivisorRep) else to_divisor(f)
        except FactoringWindowExceeded:
            return self.formula(f)
        return DivisorRep._make(self.target_field, self.target_vars, self._exponents(d), 1)


def build_psi_from_valuation(
    place,
    embed: dict[str, str],
    target_field: FiniteField,
    target_vars: tuple[str, ...],
) -> ValuationPsi:
    """Forward construction: the map defined by a divisorial curve
    valuation and an embedding of the residue field."""
    if not isinstance(place, DivisorialCurve):
        raise InvalidInput("psi is built from divisorial curve places only")
    if target_field.q != place.field.q:
        raise InvalidInput("bad embedding: constant fields differ")
    if len(set(embed.values())) != len(embed):
        raise InvalidInput("bad embedding: variable images collide")
    for v in embed.values():
        if v not in target_vars:
            raise InvalidInput(f"bad embedding: {v!r} is not a target variable")
    res_var = place.residue_var
    if res_var not in embed:
        raise InvalidInput(f"bad embedding: no image for residue variable {res_var!r}")
    return ValuationPsi(place, embed, target_field, target_vars)


def check_multiplicative(psi: PsiMap, fns: list[RationalFn]) -> list[str]:
    """Spot-check psi(ab) = psi(a)psi(b) and psi(1/a) = psi(a)^-1.  A
    product beyond the factoring window takes the formula of a
    ValuationPsi, so there the check sets the two routes against each
    other."""
    defects: list[str] = []
    sample = list(fns)
    for i, a in enumerate(sample):
        b = sample[(i * 7 + 3) % len(sample)]
        pa = psi.evaluate(a)
        lhs = psi.evaluate(a * b).class_key()
        rhs = (pa * psi.evaluate(b)).class_key()
        if lhs != rhs:
            defects.append(f"psi(({a})*({b})) differs from psi({a})psi({b})")
        if psi.evaluate(a.inverse()).class_key() != pa.inverse().class_key():
            defects.append(f"psi(1/({a})) differs from psi({a})^-1")
    return defects


# -- the arena ---------------------------------------------------------


# exponents beyond this are outside the window of the closure check
EXP_BOUND = 6


class Arena:
    """Finite window onto the projective space of K: canonical
    irreducible generators up to a degree, catalog lines l(1,g) for
    every generator plus the ratio lines l(1,g/h) over linear h, and a
    few planes.  Divisors and names are cached per function.  Lines
    take the trusted `EmbeddedSubspace.line` route; the planes take the
    normalising constructor.  `line_divisors` holds the divisors of
    every line's points, parallel to its functions: the points
    (c0 d + n)/d of l(1, n/d) share d, which is factored once per line.

    Valuation extraction needs two variables; the one-variable catalog
    serves the flag checks of the valuation axioms."""

    def __init__(self, field: FiniteField, vars: tuple[str, ...], gen_degree: int = 2) -> None:
        self.field = field
        self.vars = tuple(vars)
        self.gen_degree = gen_degree
        if len(self.vars) == 1:
            self.gens = monic_irreducibles(field.q, self.vars[0], gen_degree)
        elif len(self.vars) == 2:
            self.gens = irreducible_canonicals_bivariate(field.q, self.vars, gen_degree)
        else:
            raise InvalidInput("arena supports one or two variables")
        self.one = RationalFn.constant(field, self.vars, 1)
        self._div_cache: dict = {}
        self._names: dict = {}

        linear = [g for g in self.gens if g.degree() == 1]
        line_gens: list[RationalFn] = []
        seen: set = set()

        def push(fn: RationalFn) -> None:
            # never constant: a generator, or g/h for distinct monic irreducibles
            key = (fn.num, fn.den)
            if key not in seen:
                seen.add(key)
                line_gens.append(fn)

        for g in self.gens:
            push(RationalFn.from_poly(g))
        for g in self.gens:
            for h in linear:
                if g is not h:
                    push(RationalFn._make(g, h))  # distinct monic irreducibles are coprime
        self.line_gens = tuple(line_gens)
        self.lines = tuple(EmbeddedSubspace.line(x) for x in self.line_gens)

        if len(self.vars) == 2:
            x = RationalFn.parse(field, self.vars[0], self.vars)
            y = RationalFn.parse(field, self.vars[1], self.vars)
            self.planes = (
                EmbeddedSubspace([self.one, x, y]),
                EmbeddedSubspace([self.one, x, x * y]),
            )
        else:
            t = RationalFn.parse(field, self.vars[0], self.vars)
            self.planes = (EmbeddedSubspace([self.one, t, t * t]),)

    def divisor_of(self, f: RationalFn, den_factors: tuple | None = None) -> DivisorRep:
        """to_divisor(f), cached per function; den_factors is factor(f.den)
        when the caller holds it."""
        key = (f.num, f.den)
        d = self._div_cache.get(key)
        if d is None:
            d = to_divisor(f) if den_factors is None else _divisor_with_den(f, den_factors)
            self._div_cache[key] = d
        return d

    @cached_property
    def line_divisors(self) -> tuple[tuple[DivisorRep, ...], ...]:
        """Per line, its points' divisors from the divisor cache, made on
        first read and kept; the point 1 alone may not share d."""
        out = []
        for gen, line in zip(self.line_gens, self.lines):
            shared = factor(gen.den)
            out.append(tuple(self.divisor_of(f, shared if f.den == gen.den else None) for f in line.functions))
        return tuple(out)

    def name(self, f: RationalFn) -> str:
        """str(f), rendered once per function and kept: the report names
        and sort keys of the round trips sharing this arena read it."""
        key = (f.num, f.den)
        text = self._names.get(key)
        if text is None:
            text = self._names[key] = str(f)
        return text

    def within_bounds(self, d: DivisorRep) -> bool:
        return all(abs(e) <= EXP_BOUND for e in d.exps.values())

    def describe(self) -> dict:
        return {
            "field": self.field.q,
            "vars": list(self.vars),
            "gen_degree": self.gen_degree,
            "exp_bound": EXP_BOUND,
            "generators": len(self.gens),
            "lines": len(self.lines),
            "planes": len(self.planes),
        }


# -- subspace decomposition (images up to dependence) -------------------


@dataclass
class Decomposition:
    subspace: EmbeddedSubspace
    s1: tuple[int, ...]
    classes: tuple[tuple[int, tuple[int, ...]], ...]  # (representative, members)
    images: tuple[DivisorRep, ...]
    l43_ok: bool
    l43_report: dict


def decompose_subspace(psi: PsiMap, S: EmbeddedSubspace) -> Decomposition:
    """Split S into the kernel part and classes of points with mutually
    dependent images, then check the containment properties the
    decomposition must satisfy: each part closed under products, unit
    lines confined to their part, and mixed lines either confined or
    avoiding the kernel.

    psi is evaluated once per point of S.  Up to a constant, which psi
    ignores on K*/k*, fi + c*fj is the point a_i + c*a_j of S and f + c
    the point a_i + c*e_0, so the line checks read their images from
    that table.  The point e_0 = (1:0:...:0) must therefore be a
    constant; any other S is refused with InvalidInput."""
    F = S.field
    points = S.geometry.points
    index = {p: i for i, p in enumerate(points)}
    e0 = S.functions[index[(1,) + (0,) * (len(points[0]) - 1)]]
    if not e0.is_constant():
        raise InvalidInput(f"point (1:0:...:0) of the subspace is {e0}, not a constant")
    add, mul = F._add, F._mul
    # f + c is the point a_i + (c / e0) e_0
    shift = mul[F.div(e0.den.leading_coeff(), e0.num.leading_coeff())]

    images = [psi.evaluate(f) for f in S.functions]

    def at(vec) -> DivisorRep:
        """The image of the point spanned by the coordinate vector vec."""
        return images[index[normalize_coords(F, vec)]]

    s1 = [i for i, d in enumerate(images) if d.is_trivial()]
    rest = [i for i, d in enumerate(images) if not d.is_trivial()]

    reps: list[int] = []
    members: dict[int, list[int]] = {}
    for i in rest:
        hits = [r for r in reps if _related(images[i], images[r], DEP_BOUND)]
        if not hits:
            reps.append(i)
            members[i] = [i]
        elif len(hits) == 1:
            members[hits[0]].append(i)
        else:
            raise DependenceBoundTooSmall(
                f"point {i} relates to {len(hits)} distinct classes at bound {DEP_BOUND}"
            )
    for r in reps:
        mem = members[r]
        for ai in range(len(mem)):
            for bi in range(ai + 1, len(mem)):
                if not _related(images[mem[ai]], images[mem[bi]], DEP_BOUND):
                    raise DependenceBoundTooSmall(
                        f"class of point {r} is not transitive at bound {DEP_BOUND}"
                    )

    k_units = list(range(1, F.q))
    violations: dict[str, list[str]] = {"closure": [], "unit_lines": [], "pair_lines": []}

    def in_part(d: DivisorRep, rep: int) -> bool:
        # a dependence certificate at any bound is sound, so containment
        # retries once at a doubled bound before reporting a violation;
        # products of class members need annihilators of larger bidegree
        # than the members themselves
        return _related(d, images[rep], DEP_BOUND) or _related(d, images[rep], 2 * DEP_BOUND)

    for r in reps:
        part = s1 + members[r]
        for ai in range(len(part)):
            for bi in range(ai, len(part)):
                prod = images[part[ai]] * images[part[bi]]
                if not in_part(prod, r):
                    violations["closure"].append(
                        f"({S.functions[part[ai]]})*({S.functions[part[bi]]}) leaves its part"
                    )
    for r in reps:
        for i in members[r]:
            f = S.functions[i]
            a0, *tail = points[i]
            for c in k_units:
                if not in_part(at((add[a0][shift[c]], *tail)), r):
                    violations["unit_lines"].append(f"l(1,{f}) at {f}+{c}")
    for ai in range(len(rest)):
        for bi in range(ai + 1, len(rest)):
            i, j = rest[ai], rest[bi]
            if images[i].class_key() == images[j].class_key():
                continue
            fi, fj = S.functions[i], S.functions[j]
            related = _related(images[i], images[j], DEP_BOUND)
            for c in k_units:
                img = at(tuple(add[x][mul[c][y]] for x, y in zip(points[i], points[j])))
                if related and not in_part(img, i):
                    violations["pair_lines"].append(f"l({fi},{fj}) at +{c}({fj})")
                elif not related and img.is_trivial():
                    violations["pair_lines"].append(
                        f"l({fi},{fj}) meets the kernel at +{c}({fj})"
                    )

    ok = not any(violations.values())
    return Decomposition(
        S,
        tuple(s1),
        tuple((r, tuple(members[r])) for r in reps),
        tuple(images),
        ok,
        violations,
    )


# -- the unit universe -------------------------------------------------


@dataclass
class UniverseReport:
    u_classes: dict  # class_key -> (fn, source divisor, image)
    line_status: tuple[tuple[str, str], ...]  # (gen, injective|flag|neither)
    all_lines_flag: bool
    hypothesis_held: bool


def build_u(arena: Arena, classes: dict) -> UniverseReport:
    """Union of catalog lines l(1,x) on which psi is injective, plus
    the independence check on its images: two units with independent
    images make the unit universe multiplicatively productive.  Each
    point's image is read from the class table of
    `_collect_point_classes`.  The check is sampled over the first 25
    distinct nontrivial images."""
    u: dict = {}
    status: list[tuple[str, str]] = []
    all_flag = True
    for gen, line, divs in zip(arena.line_gens, arena.lines, arena.line_divisors):
        imgs = [classes[d.class_key()][2] for d in divs]
        keys = [img.class_key() for img in imgs]
        gen_name = arena.name(gen)
        if len(set(keys)) == len(keys):
            status.append((gen_name, "injective"))
            all_flag = False
            for f, d, img in zip(line.functions, divs, imgs):
                u.setdefault(d.class_key(), (f, d, img))
        elif line_criterion(line.geometry, keys):
            status.append((gen_name, "flag"))
        else:
            status.append((gen_name, "neither"))
            all_flag = False

    nontrivial: dict = {}
    for fn, _, img in u.values():
        if img.is_trivial() or fn.is_constant():
            continue
        nontrivial.setdefault(img.class_key(), img)
        if len(nontrivial) >= 25:
            break
    held = any(
        not _related(a, b, DEP_BOUND) for a, b in itertools.combinations(nontrivial.values(), 2)
    )
    return UniverseReport(u, tuple(status), all_flag, held)


# -- integer lattice plumbing -------------------------------------------


class _Gamma:
    """Value group of the extracted map: the catalog class group modulo
    the unit subgroup, with an exact coordinate evaluator.

    Over two variables every generator is itself a catalog point, so
    the ambient group is free on the columns, one per generator, and
    `RowLattice.quotient` applies.
    """

    def __init__(self, classes: dict, unit_keys: set) -> None:
        self.index: dict = {}
        self.vecs = {
            key: {self.index.setdefault(g, len(self.index)): e for g, e in d.exps.items()}
            for key, (_, d, _) in classes.items()
        }
        lat = RowLattice()
        # catalog order: set order, and so the lattice work, moves with the hash seed
        for key in classes:
            if key in unit_keys:
                lat.add(self.vecs[key])
        P = lat.quotient(len(self.index))
        self._coords_of = P.coords
        self.free_rank = P.free_rank
        self.torsion = tuple(P.torsion)
        self._by_key: dict = {}

    def nu_key(self, key):
        if key not in self._by_key:
            self._by_key[key] = self._coords_of(self.vecs[key])
        return self._by_key[key]

    def nu(self, f):
        """Coordinates of an arbitrary element, or None when its divisor
        leaves the catalog window."""
        d = f if isinstance(f, DivisorRep) else to_divisor(f)
        key = d.class_key()
        if key in self.vecs:
            return self.nu_key(key)
        if not self.index.keys() >= d.exps.keys():
            return None
        return self._coords_of({self.index[g]: e for g, e in d.exps.items()})


def _is_zero(coords) -> bool:
    return coords is not None and not any(coords[0]) and not any(coords[1])


# -- extraction ---------------------------------------------------------


@dataclass
class ReconstructionResult:
    verdict: str  # valuation | injective | inconclusive
    case: str | None
    arena: dict
    o_units_sample: tuple[str, ...] = ()
    o_units_size: int = 0
    gamma_rank: int | None = None
    gamma_torsion: tuple[int, ...] = ()
    generator: str | None = None
    orientation: int | None = None
    hypothesis_held: bool | None = None
    lemma_checks: dict = dc_field(default_factory=dict)
    flags: dict = dc_field(default_factory=dict)
    notes: tuple[str, ...] = ()
    nu: object = None  # callable on functions/divisors; not serialized

    def to_json_obj(self) -> dict:
        """Every field but `nu`, in field order, tuples as lists."""
        obj = {f.name: getattr(self, f.name) for f in dc_fields(self) if f.name != "nu"}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in obj.items()}


def _collect_point_classes(psi: PsiMap, arena: Arena) -> dict:
    """One sweep over the catalog: class_key -> (fn, divisor, image).
    This is the one place psi meets the catalog lines: it is evaluated
    once per class, and every later stage reads its image here."""
    classes: dict = {}
    for line, divs in zip(arena.lines, arena.line_divisors):
        for f, d in zip(line.functions, divs):
            key = d.class_key()
            if key not in classes:
                classes[key] = (f, d, psi.evaluate(d))
    return classes


# modulus of the additive divisor hash, the Mersenne prime 2^61 - 1
HASH_MOD = (1 << 61) - 1


def _divisor_hash(rng: random.Random):
    """H(d) = sum of w(g) * e over the exponents of d, mod HASH_MOD, with
    one weight w(g) per generator drawn from rng in first-seen order, so
    that H(a / b) = H(a) - H(b) and the draws follow no string hash."""
    weights: dict = defaultdict(lambda: rng.randrange(1, HASH_MOD))
    return lambda d: sum(weights[g] * e for g, e in d.exps.items()) % HASH_MOD


def _pair_witness(target: DivisorRep, H, u_ext: list, u_hashes: set, u_keys: set) -> bool:
    """Explicit factorization of target into two unit-universe classes.
    u_ext pairs each class d of the universe with H(d), and u_hashes
    holds those hashes: d is tried only when H(target) - H(d) is one of
    them, and then confirmed by the exact division, so a collision
    costs one division and never a verdict."""
    if target.class_key() in u_keys:
        return True  # target * 1, and 1 lies on every injective line
    ht = H(target)
    return any(
        (target / d).class_key() in u_keys for h, d in u_ext if (ht - h) % HASH_MOD in u_hashes
    )


def _certify_flag_on_lines(gamma: _Gamma, arena: Arena) -> tuple[bool, list[str]]:
    bad = []
    for gen, line, divs in zip(arena.line_gens, arena.lines, arena.line_divisors):
        vals = []
        for d in divs:
            v = gamma.nu_key(d.class_key())
            vals.append(("outside",) if v is None else v)
        if not line_criterion(line.geometry, vals):
            bad.append(str(gen))
    return not bad, bad


def _orient_rank_one(gamma: _Gamma, arena: Arena) -> tuple[int | None, dict]:
    """Pick the sign making sampled pairs satisfy the ultrametric rule
    and additivity on products; a map and its negative cannot both."""
    stats = {1: 0, -1: 0, "pairs": 0}
    # mix unit-value and nonzero-value polynomials: pairs with distinct
    # values are the only ones the ultrametric rule can discriminate
    zeros: list[RationalFn] = []
    nonzeros: list[RationalFn] = []
    for fn in arena.line_gens:
        if not fn.den.is_constant():
            continue
        v = gamma.nu(arena.divisor_of(fn))
        if v is None or any(v[0]):
            continue
        val = v[1][0] if v[1] else 0
        if val == 0:
            if len(zeros) < 6 and fn.num.degree() == 1:
                zeros.append(fn)
        elif len(nonzeros) < 4:
            nonzeros.append(fn)
        if len(zeros) >= 6 and len(nonzeros) >= 4:
            break
    fns = zeros + nonzeros
    for i in range(len(fns)):
        for j in range(i + 1, len(fns)):
            f, g = fns[i], fns[j]
            s = f + g
            if not s:
                continue
            vals = []
            for h in (arena.divisor_of(f), arena.divisor_of(g), s, f * g):
                v = gamma.nu(h)
                if v is None or any(v[0]):
                    vals = None
                    break
                vals.append(v[1][0])
            if vals is None:
                continue
            vf, vg, vs, vp = vals
            stats["pairs"] += 1
            for sign in (1, -1):
                a, b, c = sign * vf, sign * vg, sign * vs
                if c < min(a, b) or (a != b and c != min(a, b)):
                    stats[sign] += 1
                if sign * vp != a + b:
                    stats[sign] += 1
    if stats["pairs"] == 0:
        return None, stats
    good = [s for s in (1, -1) if stats[s] == 0]
    if len(good) == 1:
        return good[0], stats
    if len(good) == 2:
        return 1, stats  # samples cannot separate the signs; canonical choice
    return None, stats


def extract_valuation(psi: PsiMap, arena: Arena) -> ReconstructionResult:
    """Full pipeline: multiplicativity precheck, kernel sweep, unit
    universe, route selection, quotient computation, and order
    certification through flag behavior on every catalog line.

    Routes: products of injective lines (main), flag map on every line
    (the map is already its own valuation), or all non-flag images
    confined to one dependence class (units pulled back from there).
    """
    if len(arena.vars) != 2:
        raise InvalidInput("valuation extraction needs a two-variable arena")
    defects = check_multiplicative(psi, list(arena.line_gens[:12]))
    if defects:
        raise PreconditionFailed("psi is not multiplicative on the arena: " + defects[0])

    classes = _collect_point_classes(psi, arena)
    kernel_keys = {
        key for key, (_, d, img) in classes.items() if img.is_trivial() and not d.is_trivial()
    }
    arena_desc = arena.describe()

    lemma_checks: dict = {"l43": None, "l45": None, "p46": None}
    notes: list[str] = []
    flags: dict = {}

    try:
        decs = [decompose_subspace(psi, P) for P in arena.planes]
        lemma_checks["l43"] = all(d.l43_ok for d in decs)
    except DependenceBoundTooSmall as e:
        lemma_checks["l43"] = False
        notes.append(f"plane decomposition aborted: {e}")

    if not kernel_keys:
        return ReconstructionResult(
            "injective",
            None,
            arena_desc,
            lemma_checks=lemma_checks,
            notes=tuple(notes + ["no kernel detectable on the arena"]),
        )

    ur = build_u(arena, classes)

    if ur.u_classes:
        case = "main"
        unit_keys = set(ur.u_classes)
        if not ur.hypothesis_held:
            notes.append(
                "independent-image hypothesis failed on this window; "
                "multiplicative closure is verified directly instead"
            )

        # closure: sampled triple products of units must factor into two
        # unit classes again; products whose factorizations would need
        # points beyond the window are counted, not failed
        u_items = sorted(
            ur.u_classes.values(), key=lambda t: (t[1].deg_sum(), len(t[1].exps), arena.name(t[0]))
        )
        u_divs = [d for _, d, _ in u_items]
        H = _divisor_hash(random.Random(0))
        u_ext = [(H(d), d) for d in u_divs]
        u_ext += [(-h % HASH_MOD, d.inverse()) for h, d in u_ext]
        u_ext_keys = {d.class_key() for _, d in u_ext}
        u_hashes = {h for h, _ in u_ext}

        small = [d for d in u_divs if d.deg_sum() <= 1 and all(e > 0 for e in d.exps.values())]
        small = small[:6] or u_divs[:3]
        found = 0
        unrepresented = 0
        out_of_window = 0
        seen_triples: set = set()
        for a in small:
            for b in small:
                for c in small:
                    t = a * b * c
                    tk = t.class_key()
                    if tk in seen_triples:
                        continue
                    seen_triples.add(tk)
                    if not arena.within_bounds(t):
                        out_of_window += 1
                        continue
                    if _pair_witness(t, H, u_ext, u_hashes, u_ext_keys):
                        found += 1
                    else:
                        unrepresented += 1
        if found == 0:
            raise ClosureFailure(
                "no sampled triple product of units factors through the window; "
                "the arena is too small to certify closure"
            )
        lemma_checks["l45"] = True
        flags["l45_triples_factored"] = found
        flags["l45_triples_beyond_window"] = unrepresented
        if out_of_window:
            flags["l45_triples_beyond_exponent_bound"] = out_of_window
    elif ur.all_lines_flag:
        case = "B"
        unit_keys = set(kernel_keys)
        notes.append("flag map on every catalog line; the map is its own valuation")
    else:
        case = "A"
        bad_imgs: list[DivisorRep] = []
        seen_img: set = set()
        for divs, (_, st) in zip(arena.line_divisors, ur.line_status):
            if st != "neither":
                continue
            for d in divs:
                img = classes[d.class_key()][2]
                if not img.is_trivial() and img.class_key() not in seen_img:
                    seen_img.add(img.class_key())
                    bad_imgs.append(img)
        rep = bad_imgs[0]
        for other in bad_imgs[1:]:
            if not _related(rep, other, DEP_BOUND):
                return ReconstructionResult(
                    "inconclusive",
                    "A",
                    arena_desc,
                    hypothesis_held=False,
                    lemma_checks=lemma_checks,
                    notes=tuple(
                        notes
                        + [
                            "images of non-flag lines span independent directions; "
                            "no single one-dimensional subfield receives them"
                        ]
                    ),
                )
        unit_keys = {
            key
            for key, (_, d, img) in classes.items()
            if img.is_trivial() or _related(img, rep, DEP_BOUND)
        }
        if len(unit_keys) == len(classes):
            return ReconstructionResult(
                "inconclusive",
                "A",
                arena_desc,
                hypothesis_held=False,
                lemma_checks=lemma_checks,
                notes=tuple(
                    notes
                    + ["detected unit group covers the whole window; the quotient is trivial"]
                ),
            )

    gamma = _Gamma(classes, unit_keys)

    o_keys = {key for key in classes if _is_zero(gamma.nu_key(key))}

    flag_ok, bad_lines = _certify_flag_on_lines(gamma, arena)
    lemma_checks["p46"] = flag_ok
    if not flag_ok:
        raise OrderFailure(
            f"extracted map is not a flag map on {len(bad_lines)} catalog lines; "
            f"first: l(1,{bad_lines[0]})"
        )

    orientation = None
    if gamma.free_rank == 1 and not gamma.torsion:
        orientation, stats = _orient_rank_one(gamma, arena)
        flags["orientation_stats"] = {str(k): v for k, v in stats.items()}
        if orientation is None and stats["pairs"]:
            raise OrderFailure("no sign makes the sampled ultrametric inequalities hold")

    # generator: a class one step up the positive side of the order,
    # preferring polynomial representatives and short names
    sign = orientation or 1
    candidates = []
    for key, (f, _, _) in classes.items():
        v = gamma.nu_key(key)
        if v is None or any(v[0]):
            continue
        total = sum(abs(x) for x in v[1])
        if total != 1:
            continue
        positive = sign * sum(v[1]) > 0
        name = arena.name(f)
        candidates.append((not positive, not f.den.is_constant(), len(name), name))
    generator = min(candidates)[3] if candidates else None

    sample = sorted(arena.name(classes[k][0]) for k in o_keys)[:12]
    return ReconstructionResult(
        "valuation",
        case,
        arena_desc,
        tuple(sample),
        len(o_keys),
        gamma.free_rank,
        gamma.torsion,
        generator,
        orientation,
        ur.hypothesis_held,
        lemma_checks,
        flags,
        tuple(notes),
        gamma.nu,
    )


# -- theorem conclusions -------------------------------------------------


def verify_theorem_conclusions(
    result: ReconstructionResult, psi: PsiMap, arena: Arena, samples: int = 50
) -> dict:
    """Conclusion (1): psi is trivial on 1 + m.  Conclusion (2): the
    induced map at the residue level is injective.  Both are sampled on
    the arena against the extracted quotient.  For a ValuationPsi,
    conclusion (2) compares the unit residues at the curve, and an
    extracted unit of nonzero curve value is a failed sample."""
    if result.verdict != "valuation" or result.nu is None:
        raise InvalidInput("conclusions are checked against a valuation verdict")
    nu = result.nu
    sign = result.orientation or 1

    def value(f):
        v = nu(f)
        if v is None or any(v[0]):
            return None
        return sign * v[1][0] if v[1] else 0

    gen_values = [value(arena.divisor_of(fn)) for fn in arena.line_gens]
    m_fns = [fn for fn, v in zip(arena.line_gens, gen_values) if (v or 0) > 0]
    c1 = {"samples": 0, "passes": 0, "failures": []}
    for f in m_fns:
        if c1["samples"] >= samples:
            break
        for g in [arena.one] + m_fns:
            cand = f * g + 1
            if not cand:
                continue
            c1["samples"] += 1
            if psi.evaluate(cand).is_trivial():
                c1["passes"] += 1
            else:
                c1["failures"].append(str(cand))
            if c1["samples"] >= samples:
                break
    if not m_fns:
        c1["note"] = "no positive-value elements in the catalog"

    units = [fn for fn, v in zip(arena.line_gens, gen_values) if v == 0]
    c2 = {"samples": 0, "passes": 0, "failures": [], "method": None}
    if isinstance(psi, ValuationPsi):
        c2["method"] = "distinct residue classes keep distinct images"
        place = psi.place
        # each unit's residue and image class, on first use
        residue = cache(lambda k: place.unit_residue(units[k]))
        image_key = cache(lambda k: psi.evaluate(arena.divisor_of(units[k])).class_key())
        for i, f in enumerate(units):
            if c2["samples"] >= samples:
                break
            vf, rf = residue(i)
            for j in range(i + 1, len(units)):
                g = units[j]
                vg, rg = residue(j)
                if not (vf or vg) and (rf / rg).is_constant():
                    continue
                c2["samples"] += 1
                if vf or vg:
                    # the extracted value calls a non-unit of the curve a unit
                    c2["failures"].append(f"{f if vf else g} is not a unit along {place.pi}")
                elif image_key(i) != image_key(j):
                    c2["passes"] += 1
                else:
                    c2["failures"].append(f"{f} vs {g}")
                if c2["samples"] >= samples:
                    break
    if c2["samples"] == 0:
        c2["method"] = "kernel units are constants modulo the maximal ideal"
        F = arena.field
        for fn in units:
            if c2["samples"] >= samples:
                break
            d = arena.divisor_of(fn)
            if not psi.evaluate(d).is_trivial() or d.is_trivial():
                continue
            c2["samples"] += 1
            hit = False
            for c in range(1, F.q):
                shifted = fn - c
                if shifted and (value(shifted) or 0) > 0:
                    hit = True
                    break
            if hit:
                c2["passes"] += 1
            else:
                c2["failures"].append(str(fn))

    return {
        "conclusion1": c1,
        "conclusion2": c2,
        "all_passed": c1["passes"] == c1["samples"] and c2["passes"] == c2["samples"],
    }
