"""Discovery digest: certificates of seeds 0-1499 of ``random_bundle_graph``.

Runs ``find_free_generators`` on ``random_bundle_graph(random.Random(seed))``
(from ``tests/conftest.py``) for each seed in order, and prints the number
of certificates and one sha256.  The serialisation: for each graph, x is the
list of its certificates' ``to_json()``, or ``{"none": <error class name>}``
when discovery raises ``NoWitnessFoundError`` or ``TooLargeError``, and the
hash is updated with ``json.dumps(x, sort_keys=True)`` encoded as UTF-8.

This recipe reproduces the recorded gate value: 6,416 certificates with
sha256 88a98f1758664e9e69992415fcee098311a17776b46ccb3813fa19f1bc73d2ee.
The certificates are not verified, so "verified_to_length" and "mode" are
null and no "verification" key is present.  It exits 1 when either number
differs.  The script is not a Tier-1 test (pytest does not collect it); it takes a few
seconds.  Run it from the repository root:

    PYTHONPATH=src python tests/discovery_digest.py
"""

import hashlib
import json
import random
import sys

from conftest import random_bundle_graph
from leavitt.errors import NoWitnessFoundError, TooLargeError
from leavitt.freeness import find_free_generators

SEEDS = range(1500)
EXPECTED = (6416, "88a98f1758664e9e69992415fcee098311a17776b46ccb3813fa19f1bc73d2ee")


def digest(seeds=SEEDS) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for seed in seeds:
        g = random_bundle_graph(random.Random(seed))
        try:
            x = [c.to_json() for c in find_free_generators(g)]
            count += len(x)
        except (NoWitnessFoundError, TooLargeError) as exc:
            x = {"none": type(exc).__name__}
        h.update(json.dumps(x, sort_keys=True).encode())
    return count, h.hexdigest()


if __name__ == "__main__":
    count, hexdigest = digest()
    print(f"certificates: {count}")
    print(f"sha256: {hexdigest}")
    sys.exit(0 if (count, hexdigest) == EXPECTED else 1)
