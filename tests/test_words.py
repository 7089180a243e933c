import random
from functools import reduce
from operator import mul

from hypothesis import given, strategies as st

from charvar.words import Word, commutator
from conftest import random_word

a = Word.generator(0)
b = Word.generator(1)


def test_basic_reduction():
    assert a * a.inverse() * b == b
    assert Word.identity() * Word.identity() == Word.identity()
    assert a * b * b.inverse() * a == Word(((0, 2),))


def test_syllable_merging():
    w = Word([(0, 2), (0, -2)])
    assert w.is_identity()
    assert Word([(0, 1), (0, 1), (1, 0)]) == Word(((0, 2),))


def test_inverse_and_power():
    w = a * b * a.inverse()
    assert (w * w.inverse()).is_identity()
    assert a ** 3 == Word(((0, 3),))
    assert a ** -2 == Word(((0, -2),))
    assert (a * b) ** 0 == Word.identity()


def test_commutator_expansion():
    assert commutator(a, b) == Word(((0, 1), (1, 1), (0, -1), (1, -1)))


@given(st.integers(0, 2 ** 32), st.integers(0, 6), st.integers(0, 6))
def test_commutator_is_the_four_fold_product(seed, len_u, len_v):
    # one reduction of the four syllable lists gives the word reduced step
    # by step, cancellations across each junction included
    rng = random.Random(seed)
    u, v = random_word(rng, 2, len_u), random_word(rng, 2, len_v)
    for x, y in ((u, v), (u, u), (u, u.inverse()), (u, v * u)):
        assert commutator(x, y) == x * y * x.inverse() * y.inverse()


def test_exponent_vector():
    w = commutator(a, b) * a
    assert w.exponent_vector(2) == (1, 0)
    assert commutator(a, b).exponent_vector(3) == (0, 0, 0)


def test_letters_roundtrip():
    w = a ** 2 * b.inverse() * a
    assert Word(w.letters()) == w


words_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=-3, max_value=3)),
    max_size=30,
).map(Word)


@given(words_strategy)
def test_free_reduce_idempotent(w):
    assert Word(w.syllables) == w  # construction already reduces


@given(words_strategy, words_strategy)
def test_product_inverse_law(u, v):
    assert (u * v).inverse() == v.inverse() * u.inverse()


def test_reduction_length_nonincreasing():
    rng = random.Random(11)
    for _ in range(300):
        raw = [(rng.randrange(3), rng.choice((1, -1))) for _ in range(20)]
        assert sum(abs(e) for _, e in Word(raw).syllables) <= 20


def test_random_word_times_inverse_is_identity():
    rng = random.Random(5)
    for _ in range(200):
        w = random_word(rng, 4, 15)
        assert (w * w.inverse()).is_identity()


def test_power_is_the_repeated_product():
    rng = random.Random(23)
    for _ in range(50):
        w = random_word(rng, 3, 8)
        for n in range(-5, 6):
            base = w if n >= 0 else w.inverse()
            assert w ** n == reduce(mul, [base] * abs(n), Word.identity())
