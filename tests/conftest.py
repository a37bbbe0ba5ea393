"""Shared fixtures: the standard graphs, random generators, and brute-force
oracles kept independent of the library code paths they check."""

import random
from fractions import Fraction

import pytest

from leavitt import examples
from leavitt.algebra import AlgebraElement, PathMonomial
from leavitt.exprs import Diff, EdgeSym, GhostSym, Lit, Neg, Prod, Sum, VertexSym, evaluate
from leavitt.graph import Graph, Path


@pytest.fixture
def toeplitz():
    return examples.toeplitz()


@pytest.fixture
def double_emitter():
    return examples.double_emitter()


@pytest.fixture
def loop_with_two_exits():
    return examples.loop_with_two_exits()


@pytest.fixture
def cycle_with_side_loop():
    return examples.cycle_with_side_loop()


@pytest.fixture
def chained_loops():
    return examples.chained_loops()


@pytest.fixture
def bundle_inflow():
    return examples.bundle_inflow()


FIXTURE_NAMES = [
    "toeplitz",
    "double_emitter",
    "loop_with_two_exits",
    "cycle_with_side_loop",
    "chained_loops",
]


@pytest.fixture(params=FIXTURE_NAMES)
def any_graph(request):
    return examples.ALL[request.param]()


# brute-force oracles

def brute_reaching(g: Graph, target: str) -> frozenset:
    """M(target) by naive closure: iterate one-step predecessor expansion."""
    succ = {}
    for v in g.vertices:
        nxt = {e.dst for e in g.edges.values() if e.src == v}
        nxt |= {b.dst for b in g.bundles.values() if b.src == v}
        succ[v] = nxt
    result = {target}
    while True:
        grown = set(result)
        for v in g.vertices:
            if succ[v] & result:
                grown.add(v)
        if grown == result:
            return frozenset(result)
        result = grown


def brute_hs_closure(g: Graph, seed) -> frozenset:
    """Smallest hereditary saturated superset, by scanning all subsets."""
    from itertools import combinations

    seed = frozenset(seed)
    best = None
    verts = list(g.vertices)
    for r in range(len(verts) + 1):
        for combo in combinations(verts, r):
            H = frozenset(combo)
            if not seed <= H:
                continue
            if _is_hs(g, H) and (best is None or len(H) < len(best)):
                best = H
    return best


def _is_hs(g: Graph, H: frozenset) -> bool:
    for v in H:
        for e in g.edges.values():
            if e.src == v and e.dst not in H:
                return False
        for b in g.bundles.values():
            if b.src == v and b.dst not in H:
                return False
    for v in g.vertices:
        if v in H or g.vertex_kind(v) != "regular":
            continue
        outs = [e.dst for e in g.edges.values() if e.src == v]
        if outs and all(d in H for d in outs):
            return False
    return True


def _breaking(g: Graph, H: frozenset) -> set:
    """Vertices outside H whose bundles all land in H and which keep an
    explicit edge out of H."""
    return {
        v
        for v in g.vertices
        if v not in H
        and g.out_bundles(v)
        and all(g.bundles[b].dst in H for b in g.out_bundles(v))
        and any(g.edges[e].dst not in H for e in g.out_edges(v))
    }


def _brute_reach(g: Graph) -> dict:
    """Forward reachability from the raw edges and bundles: the fixpoint of
    reach[src] |= reach[dst] over all arrows, from reach[v] = {v}."""
    arrows = list(g.edges.values()) + list(g.bundles.values())
    reach = {v: {v} for v in g.vertices}
    changed = True
    while changed:
        changed = False
        for a in arrows:
            if not reach[a.dst] <= reach[a.src]:
                reach[a.src] |= reach[a.dst]
                changed = True
    return reach


def brute_mt3(g: Graph, M) -> bool:
    """MT-3 from the raw edges and bundles: every two members of M reach a
    common member of M."""
    reach = _brute_reach(g)
    M = frozenset(M)
    return all(reach[u] & reach[v] & M for u in M for v in M)


def brute_maximal_tails(g: Graph) -> list:
    """The admissible pairs (V \\ M(w), B_H) and (V \\ M(w), B_H \\ {w}) over the
    vertices w, as frozensets ordered by (|H|, H, |S|, S), with M(w) the
    vertices that reach w and B_H the largest S of ``brute_admissible``."""
    reach = _brute_reach(g)
    admissible = brute_admissible(g)
    found = set()
    for w in g.vertices:
        H = frozenset(v for v in g.vertices if w not in reach[v])
        if (H, frozenset()) not in admissible:
            continue
        B = max((S for K, S in admissible if K == H), key=len)
        found |= {(H, B), (H, B - {w})}
    return sorted(found, key=lambda p: (len(p[0]), sorted(p[0]), len(p[1]), sorted(p[1])))


def brute_admissible(g: Graph) -> list:
    """Every admissible pair (H, S) as frozensets, by testing all 2^n vertex
    subsets for H and all subsets of its breaking vertices for S, ordered
    by (|H|, H, |S|, S)."""
    from itertools import combinations

    verts = sorted(g.vertices)
    pairs = []
    for r in range(len(verts) + 1):
        for combo in combinations(verts, r):
            H = frozenset(combo)
            if not _is_hs(g, H):
                continue
            B = sorted(_breaking(g, H))
            for k in range(len(B) + 1):
                pairs.extend((H, frozenset(sub)) for sub in combinations(B, k))
    pairs.sort(key=lambda p: (len(p[0]), sorted(p[0]), len(p[1]), sorted(p[1])))
    return pairs


def brute_cycles(g: Graph):
    """All cycles by exhaustive edge-sequence search, rotations deduplicated.

    Returns a set of frozensets of edge names (each cycle has distinct
    sources, so its edge set determines it).
    """
    from itertools import product

    found = set()
    names = list(g.edges)
    for length in range(1, len(g.vertices) + 1):
        for seq in product(names, repeat=length):
            srcs = [g.edges[n].src for n in seq]
            ok = all(g.edges[seq[i]].dst == srcs[i + 1] for i in range(length - 1))
            if not ok or g.edges[seq[-1]].dst != srcs[0]:
                continue
            if len(set(srcs)) != length:
                continue
            found.add(frozenset(seq))
    return found


def brute_edge_witnesses(g: Graph, target=None) -> dict:
    """The witness of each non-loop edge f with a tail onto ``target``, from
    the raw edges: f into the target sink (a sink name), f into any sink
    (None), else the first path from r(f) onto a cycle of ``brute_cycles``
    (any, or the one with the target's edges) that a forward breadth-first
    search over sorted out-edges finds, with the first cycle through its
    landing vertex rotated to start there; cycles are ordered by (least
    source vertex, edge sequence from it)."""
    from leavitt.freeness import InfinitePathEdgeWitness, SinkEdgeWitness

    outs = {v: sorted(n for n, e in g.edges.items() if e.src == v) for v in g.vertices}
    emitters = {b.src for b in g.bundles.values()}
    cycles = []
    for edge_set in brute_cycles(g) if not isinstance(target, str) else ():
        if target is not None and edge_set != frozenset(target):
            continue
        at = base = min(g.edges[n].src for n in edge_set)
        seq = []
        while len(seq) < len(edge_set):
            seq.append(next(n for n in edge_set if g.edges[n].src == at))
            at = g.edges[seq[-1]].dst
        cycles.append((base, seq))
    cycles.sort()

    def rotation(v):
        for _, seq in cycles:
            for i, name in enumerate(seq):
                if g.edges[name].src == v:
                    return tuple(seq[i:] + seq[:i])
        return None

    found = {}
    for fname, f in g.edges.items():
        if f.src == f.dst:
            continue
        sink = not outs[f.dst] and f.dst not in emitters
        if f.dst == target or (target is None and sink):
            found[fname] = SinkEdgeWitness(fname, f.dst)
            continue
        queue, seen = [(f.dst, ())], {f.dst}
        for v, trail in queue:  # grows while it is read: first in, first out
            if (cycle := rotation(v)) is not None:
                found[fname] = InfinitePathEdgeWitness(fname, f.dst, trail, cycle)
                break
            for name in outs[v]:
                if g.edges[name].dst not in seen:
                    seen.add(g.edges[name].dst)
                    queue.append((g.edges[name].dst, trail + (name,)))
    return found


# canonical-form oracle: expand an expression tree with no intermediate
# reduction, then reduce with a shuffled CK2 worklist, from graph data only

def special_edge_of(g: Graph, v: str):
    """The lexicographically largest out-edge of a regular vertex, else None
    (sinks and infinite emitters have no CK2 relation)."""
    if any(b.src == v for b in g.bundles.values()):
        return None
    outs = sorted(name for name, e in g.edges.items() if e.src == v)
    return outs[-1] if outs else None


def _path_end(g: Graph, source: str, edges: tuple) -> str:
    return g.edges[edges[-1]].dst if edges else source


def _raw_product(x: dict, y: dict) -> dict:
    """Product of raw combinations {(g source, g edges, l source, l edges):
    coeff}: (g l*)(r n*) is (g r') n* when r = l r', g (n l'')* when
    l = r l'', else zero; like monomials are collected, nothing is reduced."""
    out = {}
    for (gs, ge, ls, le), c1 in x.items():
        for (rs, re, ns, ne), c2 in y.items():
            if ls != rs:
                continue
            if re[: len(le)] == le:
                key = (gs, ge + re[len(le):], ns, ne)
            elif le[: len(re)] == re:
                key = (gs, ge, ns, ne + le[len(re):])
            else:
                continue
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _raw_expand(g: Graph, node) -> dict:
    if isinstance(node, Lit):
        return {(v, (), v, ()): node.value for v in g.vertices} if node.value else {}
    if isinstance(node, VertexSym):
        return {(node.name, (), node.name, ()): 1}
    if isinstance(node, EdgeSym):
        e = g.edges[node.name]
        return {(e.src, (e.name,), e.dst, ()): 1}
    if isinstance(node, GhostSym):
        e = g.edges[node.name]
        return {(e.dst, (), e.src, (e.name,)): 1}
    if isinstance(node, Prod):
        return _raw_product(_raw_expand(g, node.left), _raw_expand(g, node.right))
    if isinstance(node, Neg):
        return {k: -c for k, c in _raw_expand(g, node.arg).items()}
    sign = 1 if isinstance(node, Sum) else -1
    out = dict(_raw_expand(g, node.left))
    for k, c in _raw_expand(g, node.right).items():
        out[k] = out.get(k, 0) + sign * c
    return out


def shuffled_reduction(g: Graph, items, seed) -> dict:
    """Basis terms of raw (PathMonomial, coeff) pairs by the CK2 rewrite
    (a d)(b d)* -> a b* - sum over e != d of (a e)(b e)*, popping the
    worklist in a seeded random order."""
    rng = random.Random(seed)
    out = {}
    work = [(m, c) for m, c in items if c]
    while work:
        rng.shuffle(work)
        mono, coeff = work.pop()
        gam, lam = mono
        d = gam.edges[-1] if gam.edges else None
        v = g.edges[d].src if d is not None else None
        if d is None or lam.edges[-1:] != (d,) or special_edge_of(g, v) != d:
            out[mono] = out.get(mono, 0) + coeff
            continue
        a = Path(gam.source, gam.edges[:-1])
        b = Path(lam.source, lam.edges[:-1])
        work.append((PathMonomial(a, b), coeff))
        for name, e in g.edges.items():
            if e.src == v and name != d:
                a_e = Path(a.source, a.edges + (name,))
                b_e = Path(b.source, b.edges + (name,))
                work.append((PathMonomial(a_e, b_e), -coeff))
    return {m: c for m, c in out.items() if c}


def raw_terms(element: AlgebraElement) -> dict:
    """The terms of an element as a raw combination for ``_raw_product``."""
    return {
        (m.gamma.source, m.gamma.edges, m.lam.source, m.lam.edges): c
        for m, c in element.terms.items()
    }


def raw_monomials(raw: dict) -> list:
    """(PathMonomial, coeff) pairs of a raw combination."""
    return [(PathMonomial(Path(gs, ge), Path(ls, le)), c) for (gs, ge, ls, le), c in raw.items()]


def brute_normal_form(g: Graph, tree, seed) -> dict:
    """The basis terms of an expression tree: every product expanded on raw
    monomials first, then one shuffled reduction of the whole expansion."""
    return shuffled_reduction(g, raw_monomials(_raw_expand(g, tree)), seed)


# random generators (seeded by the tests that use them)

def random_expr_tree(rng, g: Graph, depth: int):
    if depth <= 0:
        kind = rng.randrange(4)
        if kind == 0:
            return Lit(Fraction(rng.randint(-3, 3)))
        if kind == 1:
            return VertexSym(rng.choice(g.vertices))
        name = rng.choice(sorted(g.edges)) if g.edges else None
        if name is None:
            return VertexSym(rng.choice(g.vertices))
        return EdgeSym(name) if kind == 2 else GhostSym(name)
    kind = rng.randrange(4)
    left = random_expr_tree(rng, g, depth - 1)
    right = random_expr_tree(rng, g, depth - 1)
    if kind == 0:
        return Sum(left, right)
    if kind == 1:
        return Diff(left, right)
    if kind == 2:
        return Prod(left, right)
    return Neg(left)


def random_element(rng, g: Graph, depth: int = 3) -> AlgebraElement:
    return evaluate(g, random_expr_tree(rng, g, depth))


def relation_elements(g: Graph, field=None):
    """Every defining relation instance over explicit edges, as elements
    that must all normalize to zero."""
    from leavitt.scalars import QQ

    field = field or QQ
    out = []
    vert = {v: AlgebraElement.vertex(g, v, field) for v in g.vertices}
    edge = {e: AlgebraElement.edge(g, e, field) for e in g.edges}
    ghost = {e: AlgebraElement.ghost(g, e, field) for e in g.edges}
    for v in g.vertices:
        for w in g.vertices:
            prod = vert[v] * vert[w]
            expected = vert[v] if v == w else AlgebraElement.zero(g, field)
            out.append((f"V[{v},{w}]", prod - expected))
    for name, e in g.edges.items():
        out.append((f"E1a[{name}]", vert[e.src] * edge[name] - edge[name]))
        out.append((f"E1b[{name}]", edge[name] * vert[e.dst] - edge[name]))
        out.append((f"E2a[{name}]", vert[e.dst] * ghost[name] - ghost[name]))
        out.append((f"E2b[{name}]", ghost[name] * vert[e.src] - ghost[name]))
    for e1 in g.edges:
        for e2 in g.edges:
            prod = ghost[e1] * edge[e2]
            expected = (
                vert[g.edges[e1].dst] if e1 == e2 else AlgebraElement.zero(g, field)
            )
            out.append((f"CK1[{e1},{e2}]", prod - expected))
    for v in g.vertices:
        if g.vertex_kind(v) != "regular":
            continue
        acc = vert[v]
        for name in g.out_edges(v):
            acc = acc - edge[name] * ghost[name]
        out.append((f"CK2[{v}]", acc))
    return out


def random_bundle_graph(rng) -> Graph:
    """A small graph whose last vertex is a sink fed by bundles, so that
    pairs with H around the sink usually have breaking vertices."""
    n = rng.randint(3, 5)
    verts = [f"v{i}" for i in range(n)]
    sink = verts[-1]
    edges = []
    for i in range(rng.randint(2, 6)):
        src = rng.choice(verts[:-1])
        edges.append((f"e{i}", src, rng.choice(verts)))
    bundles = []
    for i, src in enumerate(verts[:-1]):
        if rng.random() < 0.6:
            bundles.append((f"b{i}", src, sink))
    if rng.random() < 0.5:
        src, dst = rng.sample(verts[:-1], 2)
        bundles.append(("bx", src, dst))
    return Graph(verts, edges, bundles)


def random_path_into(rng, g: Graph, r: str, max_len: int = 2):
    """A random path of explicit edges ending at r, walked backwards."""
    edges, src = (), r
    for _ in range(rng.randint(0, max_len)):
        ins = sorted(n for n, e in g.edges.items() if e.dst == src)
        if not ins:
            break
        name = rng.choice(ins)
        edges, src = (name,) + edges, g.edges[name].src
    return Path(src, edges)


def random_monomial_element(rng, g: Graph, per_vertex: int = 2) -> AlgebraElement:
    """Random terms g l* (vertices, edges, ghosts and e f* shapes) with
    every vertex of g occurring as a range."""
    raw = []
    for r in g.vertices:
        for _ in range(rng.randint(1, per_vertex)):
            mono = PathMonomial(random_path_into(rng, g, r), random_path_into(rng, g, r))
            raw.append((mono, Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3]))))
    return AlgebraElement.from_terms(g, raw)


def brute_phi(pair, a: AlgebraElement) -> AlgebraElement:
    """The quotient map by (pair.H, pair.S) as a product of generator images.

    Uses only the pair's graph, H and S: the breaking vertices, clone names
    and quotient graph are rebuilt here from the graph data, every vertex,
    edge and ghost is sent to its image (v -> v + v', e -> e + e' for the
    cloned ones, zero on H), and each term is the product of the images of
    its source vertex and its letters.
    """
    g, H, S = pair.graph, frozenset(pair.H), frozenset(pair.S)
    cloned = _breaking(g, H) - S
    clone, taken = {}, set(g.vertices) | set(g.edges) | set(g.bundles)
    arrows = [n for pool in (g.edges, g.bundles) for n, e in pool.items() if e.dst in cloned]
    for name in sorted(cloned) + sorted(arrows):
        new = name + "'"
        while new in taken:
            new += "'"
        taken.add(new)
        clone[name] = new

    def kept(pool):
        out = [e for e in pool.values() if e.dst not in H]
        return out + [(clone[e.name], e.src, clone[e.dst]) for e in out if e.dst in cloned]

    q = Graph(
        [v for v in g.vertices if v not in H] + [clone[v] for v in sorted(cloned)],
        kept(g.edges),
        kept(g.bundles),
    )
    field = a.field

    def vertex_image(v):
        if v in H:
            return AlgebraElement.zero(q, field)
        img = AlgebraElement.vertex(q, v, field)
        if v in cloned:
            img = img + AlgebraElement.vertex(q, clone[v], field)
        return img

    def letter_image(name, ghost):
        dst = g.edges[name].dst
        if dst in H:
            return AlgebraElement.zero(q, field)
        make = AlgebraElement.ghost if ghost else AlgebraElement.edge
        img = make(q, name, field)
        if dst in cloned:
            img = img + make(q, clone[name], field)
        return img

    total = AlgebraElement.zero(q, field)
    for mono, coeff in a.terms.items():
        img = vertex_image(mono.gamma.source)
        for name in mono.gamma.edges:
            img = img * letter_image(name, False)
        for name in reversed(mono.lam.edges):
            img = img * letter_image(name, True)
        total = total + img.scale(coeff)
    return total


def brute_certificate_for(g: Graph, a_text: str, b_text: str):
    """Witness and pair of a user generator pair (a, b), by trying every shape.

    First 1 + 2f*, 1 + 2f for every edge f (the edge witness over the zero
    ideal), then 1 + 2 w^H f*, 1 + 2 f w^H for every admissible pair (H, S)
    of ``brute_admissible`` in its (|H|, H, |S|, S) order with S = B_H minus
    one breaking vertex w, and every edge f into w; w^H is built here from
    the graph data.  The swapped pair (b, a) is tried the same way after
    (a, b).  Returns the first match, else a ``_NoWitness`` over the zero
    ideal.
    """
    from leavitt.exprs import normalize
    from leavitt.freeness import BreakingVertexWitness, _NoWitness
    from leavitt.ideals import AdmissiblePair

    one = AlgebraElement.one(g)
    zero_ideal = AdmissiblePair(g, ())
    for a, b in ((a_text, b_text), (b_text, a_text)):
        a, b = normalize(g, a), normalize(g, b)
        for fname in sorted(g.edges):
            f = AlgebraElement.edge(g, fname)
            if a == one + f.star().scale(2) and b == one + f.scale(2):
                witness = brute_edge_witnesses(g).get(fname)
                if witness is not None:
                    return witness, zero_ideal
                break
        for H, S in brute_admissible(g):
            B = _breaking(g, H)
            for w in sorted(B - S):
                if S != B - {w}:
                    continue
                wh = AlgebraElement.vertex(g, w)
                for name in g.out_edges(w):
                    if g.edges[name].dst not in H:
                        e = AlgebraElement.edge(g, name)
                        wh = wh - e * e.star()
                for fname in sorted(n for n, e in g.edges.items() if e.dst == w):
                    f = AlgebraElement.edge(g, fname)
                    if a == one + (wh * f.star()).scale(2) and b == one + (f * wh).scale(2):
                        return BreakingVertexWitness(fname, w), AdmissiblePair(g, H, S)
    return _NoWitness(), zero_ideal


def brute_finite_action(g: Graph, b: tuple, gamma: Path, lam: Path):
    """Act by gamma lam^* on the finite path b = (source, edges), from graph
    data only.

    lam must start at the source of b and match its first edges, which are
    walked one at a time; gamma must then end where the rest of b starts.
    Returns the image gamma . rest as (source, edges), or None when the
    monomial kills b.
    """
    source, edges = b
    if lam.source != source or len(lam.edges) > len(edges):
        return None
    at = source
    for name, first in zip(lam.edges, edges):
        if name != first:
            return None
        at = g.edges[name].dst
    if _path_end(g, gamma.source, gamma.edges) != at:
        return None
    return gamma.source, gamma.edges + edges[len(lam.edges):]


def brute_rational_action(g: Graph, cycle: tuple, vec, gamma: Path, lam: Path, twisted=None):
    """Act by gamma lam^* on the eventually periodic path vec, edge by edge.

    ``vec = (source, prefix_edges, rotation)`` spells the infinite path
    prefix . (cycle from edge ``rotation``)^inf; no canonical form is kept.
    Each letter of lam must be the current first edge, which is read off
    the prefix or, once the prefix is used up, off the cycle at the current
    rotation.  Returns None when lam is not a prefix, else (twist, vec')
    with twist = (# twisted in gamma) - (# twisted in lam).
    """
    source, prefix, rot = vec
    if lam.source != source:
        return None
    twist = 0
    for name in lam.edges:
        first = prefix[0] if prefix else cycle[rot]
        if first != name:
            return None
        if prefix:
            prefix = prefix[1:]
        else:
            rot = (rot + 1) % len(cycle)
        source = g.edges[name].dst
        twist -= name == twisted
    if _path_end(g, gamma.source, gamma.edges) != source:
        return None
    twist += sum(name == twisted for name in gamma.edges)
    return twist, (gamma.source, gamma.edges + prefix, rot)
