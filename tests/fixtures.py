"""Golden values used across the test suite."""

from tristarter import Pairing
from tristarter._kernels import MAX_LEN

# order-7 base and its order-21 derivation (key 1)
T7 = Pairing(7, ((2, 3), (4, 6), (1, 5)))
T7_SUMS = (5, 3, 6)
DEMO_KEY = 1
DEMO_EXTENSION = ((1, 1), (2, 3), (3, 4), (5, 6), (4, 6), (5, 0), (2, 4), (1, 5), (2, 6), (3, 0))
DEMO_DELTAS = (0, 6, 6, 6, 5, 5, 5, 3, 3, 3)
DEMO_WEAK = {0: (2,), 3: (4, 9), 5: (1, 5), 6: (6, 7)}
DEMO_MONO = {
    0: ((5, 1), (9, 1)),
    1: ((0, 0), (0, 1), (7, 0)),
    2: ((1, 0), (6, 0), (8, 0)),
    3: ((1, 1), (2, 0), (9, 0)),
    4: ((2, 1), (4, 0), (6, 1)),
    5: ((3, 0), (5, 0), (7, 1)),
    6: ((3, 1), (4, 1), (8, 1)),
}
DEMO_SIGMA3 = [(1, 2), (1, 0), (2, 0), (1, 1), (2, 2), (0, 2), (0, 1), (0, 2), (2, 0), (1, 1)]
DEMO_STARTER_A = ((1, 8), (16, 3), (17, 18), (19, 13), (11, 20), (12, 14), (9, 4), (15, 5), (2, 6), (10, 7))
DEMO_STARTER_B = ((8, 1), (2, 3), (10, 18), (5, 20), (4, 13), (12, 7), (9, 11), (15, 19), (16, 6), (17, 14))

# worked order-21 starter and its reductions (key 4)
S21 = Pairing(21, ((11, 18), (9, 17), (13, 14), (8, 2), (4, 20),
                   (15, 3), (5, 7), (1, 12), (19, 16), (6, 10)))
S21_MOD3 = ((2, 0), (0, 2), (1, 2), (2, 2), (1, 2), (0, 0), (2, 1), (1, 0), (1, 1), (0, 1))
S21_MOD7 = ((4, 4), (2, 3), (6, 0), (1, 2), (4, 6), (1, 3), (5, 0), (1, 5), (5, 2), (6, 3))
S21_KEY = 4

# the alternative order-21 starter with the same mod-7 reduction
S21_ALT = Pairing(21, ((4, 18), (16, 10), (20, 7), (8, 9), (11, 13),
                       (1, 17), (5, 14), (15, 19), (12, 2), (6, 3)))
S21_ALT_MOD3 = ((1, 0), (1, 1), (2, 1), (2, 0), (2, 1), (1, 2), (2, 2), (0, 1), (0, 2), (0, 0))

# inverse-test worked examples
EX1_S21 = Pairing(21, ((13, 12), (19, 17), (7, 4), (10, 14), (15, 20),
                       (3, 9), (1, 8), (5, 18), (11, 2), (16, 6)))
EX2_S39 = Pairing(39, ((2, 1), (36, 34), (6, 3), (8, 12), (38, 33), (16, 10),
                       (18, 11), (29, 21), (22, 31), (25, 15), (13, 24),
                       (20, 32), (30, 17), (23, 37), (19, 4), (28, 5),
                       (26, 9), (14, 35), (7, 27)))
T13 = Pairing(13, ((11, 10), (6, 4), (2, 12), (9, 5), (8, 3), (7, 1)))
T13_KEY = 4

# enumeration ground truth
STRONG_COUNTS = {5: 0, 9: 0, 15: 32, 21: 6660}
# how many of those strong starters are triplication images (Inconclusive)
IMAGE_COUNTS = {21: 648}

# orders 7 <= p <= 49 with gcd(p, 6) = 1
SWEEP_ORDERS = (7, 11, 13, 17, 19, 23, 25, 29, 31, 35, 37, 41, 43, 47, 49)

# (num_ternary, clauses) of documents whose text the parser would refuse or
# read back as another document, and the writer's message for each
_LIT = "literal {} is not a nonzero int in [-{n}, {n}]"
MALFORMED_DOCUMENTS = {
    "beyond": (1, ((7,),), "clause 0: " + _LIT.format(7, n=3)),
    "above": (2, ((-6, 6), (7,)), "clause 1: " + _LIT.format(7, n=6)),
    "below": (2, ((1, 2), (-7, 3)), "clause 1: " + _LIT.format(-7, n=6)),
    "zero": (1, ((0, 1),), "clause 0: " + _LIT.format(0, n=3)),
    "no-ternary": (0, ((1,),), "clause 0: " + _LIT.format(1, n=0)),
    "huge": (1, ((1, -2 ** 64),), "clause 0: " + _LIT.format(-2 ** 64, n=3)),
    "float": (1, ((2.7,),), "clause 0: " + _LIT.format(2.7, n=3)),
    "bool": (1, ((1,), (True,)), "clause 1: " + _LIT.format(True, n=3)),
    "list-clause": (1, ((1,), [2]), "clause 1 is not a tuple: [2]"),
    "int-clause": (1, (1,), "clause 0 is not a tuple: 1"),
    "list-of-clauses": (1, [(1,)], "clauses must be a tuple, got list"),
    "negative-count": (-1, (), f"num_ternary must be an integer in [0, {MAX_LEN}], got -1"),
    "bool-count": (True, ((1,),),
                   f"num_ternary must be an integer in [0, {MAX_LEN}], got True"),
    "count-beyond-MAX_LEN": (MAX_LEN + 1, (),
                             f"num_ternary must be an integer in [0, {MAX_LEN}], "
                             f"got {MAX_LEN + 1}"),
}


def random_document(rng, max_ternary=12, max_clauses=40, max_length=6):
    """(num_ternary, clauses) of a random well-formed document."""
    n = rng.randrange(max_ternary + 1)
    lits = [lit for b in range(1, 3 * n + 1) for lit in (b, -b)]
    clauses = tuple(
        tuple(rng.choice(lits) for _ in range(rng.randrange(max_length + 1) if lits else 0))
        for _ in range(rng.randrange(max_clauses + 1)))
    return n, clauses
