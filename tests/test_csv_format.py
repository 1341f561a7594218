"""CSV rows are formatted with one % string per row: '%.17g' % v must give
format(v, '.17g') for every double, and a row of mixed types the text of
formatting each value on its own."""

import numpy as np

from maxsat.cli import _csv_text, _fmt

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
           2.2250738585072014e-308, 1.7976931348623157e308, 1e-300, 1.0, -1.0, 0.1]


def random_doubles(n: int = 200_000) -> list:
    """Uniformly random bit patterns, so every exponent, subnormals and
    NaN payloads among them, plus the special values."""
    bits = np.random.default_rng(17).integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    return bits.view(np.float64).tolist() + SPECIAL


def test_percent_g_equals_format_on_every_kind_of_double():
    values = random_doubles()
    assert sum(v != v for v in values) > 0  # NaNs among them
    assert sum(0.0 < abs(v) < 2.2250738585072014e-308 for v in values) > 0  # subnormals
    bad = [v for v in values if "%.17g" % v != format(v, ".17g")]
    assert not bad, bad[:5]


def test_rows_match_per_value_formatting():
    rng = np.random.default_rng(3)
    rows = [("potential", float(x), float(u)) for x, u in rng.normal(size=(50, 2))]
    rows += [(i, v) for i, v in enumerate(SPECIAL)]
    rows += [("minimizer", np.float64(0.25), 3), ("sc-finite", -0.0, True)]
    want = "# a=1\r\nh1,h2\r\n" + "".join(
        ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\r\n"
        for row in rows)
    assert _csv_text({"a": 1}, ["h1", "h2"], rows) == want
