"""Census slice: every small graph on one or two vertices.

The graphs are the rose with k loops at v (k = 0..3), and every graph on
u, v with 0..2 parallel edges per ordered pair, each with no bundle, a
bundle u -> v, or a bundle v -> u: 247 graphs.  Discovery must find
certificates exactly on the noncommutative ones, save the roses listed
below; every certificate must survive bounded verification; and the
discovery output must stay byte-identical.
"""

import hashlib
import itertools
import json

from leavitt.errors import NoWitnessFoundError
from leavitt.freeness import find_free_generators, is_commutative, verify_free_words
from leavitt.graph import Graph

PAIRS = [("u", "u"), ("u", "v"), ("v", "u"), ("v", "v")]
BUNDLE_OPTIONS = [(), (("bu", "u", "v"),), (("bv", "v", "u"),)]

# The rose gap: noncommutative graphs with no certificate yet.  Their
# noncommutative primitive quotients are made of loops only, and a witness
# edge may not be a loop.  Named by their sorted edge names; none has a
# bundle.  Closing the gap must empty this set.
NO_CERTIFICATE_ROSES = {
    "l0 l1",
    "l0 l1 l2",
    "evv0 evv1",
    "euu0 evv0 evv1",
    "euu0 euu1",
    "euu0 euu1 evv0",
    "euu0 euu1 evv0 evv1",
}

# sha256 over json.dumps(x, sort_keys=True) of each graph in census order,
# where x lists the certificates' to_json() or is {"none": transcript}.
DIGEST = "cff569d12e8bba2d13baccb0126f4267293948e75a9d95c49b2e31d1247108fb"


def census():
    for k in range(4):
        yield Graph(["v"], [(f"l{i}", "v", "v") for i in range(k)])
    for counts in itertools.product(range(3), repeat=4):
        edges = [(f"e{a}{b}{i}", a, b) for (a, b), m in zip(PAIRS, counts) for i in range(m)]
        for bundles in BUNDLE_OPTIONS:
            yield Graph(["u", "v"], edges, bundles)


def test_census_slice():
    digest = hashlib.sha256()
    graphs = certified = 0
    for g in census():
        graphs += 1
        name = " ".join(sorted(g.edges))
        listed = not g.bundles and name in NO_CERTIFICATE_ROSES
        try:
            certs = find_free_generators(g)
        except NoWitnessFoundError as exc:
            assert is_commutative(g).commutative != listed, name
            digest.update(json.dumps({"none": exc.transcript}, sort_keys=True).encode())
            continue
        assert not is_commutative(g).commutative and not listed, name
        digest.update(json.dumps([c.to_json() for c in certs], sort_keys=True).encode())
        for cert in certs:
            certified += 1
            assert verify_free_words(cert, 2, "both")["all_nontrivial"], (name, cert.witness)
    assert (graphs, certified) == (247, 552)
    assert digest.hexdigest() == DIGEST
