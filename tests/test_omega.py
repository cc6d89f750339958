import pytest
from hypothesis import given, strategies as st

from grigorchuk import OmegaParseError, OmegaSequence, parse_omega

periods = st.text(alphabet="012", min_size=1, max_size=5)
preperiods = st.text(alphabet="012", max_size=4)
omegas = st.builds(OmegaSequence, preperiods, periods)


def test_indexing_reads_period():
    w = OmegaSequence("", "012")
    assert w.at(1) == 0
    assert w.at(4) == 0  # period wraps


def test_indexing_reads_preperiod():
    assert OmegaSequence("2", "01").at(1) == 2


def test_zero_index_rejected():
    with pytest.raises(ValueError):
        OmegaSequence("", "012").at(0)


def test_empty_period_rejected():
    with pytest.raises(ValueError):
        OmegaSequence("", "")


def test_shift_rotates_period():
    assert OmegaSequence("", "012").shift(1) == OmegaSequence("", "120")
    assert OmegaSequence("", "012").shift(0) == OmegaSequence("", "012")


def test_shift_consumes_preperiod():
    assert OmegaSequence("20", "01").shift(2) == OmegaSequence("", "01")


def test_eventually_constant():
    assert not OmegaSequence("", "012").is_eventually_constant()
    assert OmegaSequence("01", "2").is_eventually_constant()
    assert OmegaSequence("", "22").is_eventually_constant()


def test_symbols_from():
    assert OmegaSequence("", "012").symbols_from(1) == {0, 1, 2}
    assert OmegaSequence("2", "0").symbols_from(2) == {0}
    assert OmegaSequence("20", "1").symbols_from(1) == {0, 1, 2}


def test_parse_round_trip():
    assert parse_omega("012") == OmegaSequence("", "012")
    assert parse_omega("2:01") == OmegaSequence("2", "01")
    assert parse_omega("2:01").spec() == "2:01"
    assert parse_omega("012").spec() == "012"


@pytest.mark.parametrize("bad", ["", "3", "01:", ":", "0:1:2", "a12"])
def test_parse_rejects(bad):
    with pytest.raises(OmegaParseError):
        parse_omega(bad)


@given(omegas, st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=30))
def test_shift_agrees_with_reindexing(w, n, i):
    assert w.shift(n).at(i) == w.at(i + n)


@given(omegas, st.integers(min_value=1, max_value=12))
def test_symbols_from_is_exact(w, start):
    # the tail is periodic, so a long enough scan is exhaustive
    horizon = start + len(w.preperiod) + 2 * len(w.period) + 5
    scanned = {w.at(i) for i in range(start, horizon)}
    assert w.symbols_from(start) == scanned


def test_shift_is_the_parsed_shifted_spec(short_omegas):
    # Past the preperiod the shifted period is read off the sequence itself.
    for w in short_omegas:
        pre, per = w.preperiod, w.period
        for n in range(3 * (len(pre) + len(per))):
            if n <= len(pre):
                spec = f"{pre[n:]}:{per}"
            else:
                spec = "".join(str(w.at(n + i)) for i in range(1, len(per) + 1))
            assert w.shift(n) == parse_omega(spec)
            assert w.shift(n).shift(1) == w.shift(n + 1)
