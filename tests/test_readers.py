"""The CSV input boundary: the data, scenario and observation readers turn
every malformed file into a typed package error, and the CLI reports it as
one JSON line with a documented exit code."""
import json
from datetime import date

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scendiff import data as dmod
from scendiff import diffusion as dif
from scendiff.cli import main
from scendiff.errors import ParseError, SchemaError, ScendiffError

HOURS_HEADER = ",".join(f"h{h}" for h in range(24))
VALUES = ",".join(["0.5"] * 24)

# reader, a valid header, a valid row
READERS = {
    "data": (lambda p: dmod.load_csv(p, "pv"), "date,hour,zone,target,w1",
             "2012-01-01,0,1,0.5,1.0"),
    "scenarios": (dif.read_scenarios, "day,scenario," + HOURS_HEADER, "2012-01-01,1," + VALUES),
    "observations": (dmod.read_observations, "day," + HOURS_HEADER, "2012-01-01," + VALUES),
}

# case -> (file text from a valid header and row, expected error)
CASES = {
    "empty": (lambda header, row: "", SchemaError),
    "bad_date": (lambda header, row: f"{header}\n{row.replace('2012-01-01', '2012-13-01')}\n",
                 ParseError),
    "short_row": (lambda header, row: f"{header}\n{row.rsplit(',', 1)[0]}\n", SchemaError),
    "non_numeric": (lambda header, row: f"{header}\n{row[:-3]}abc\n", ParseError),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_raise_typed_errors(tmp_path, kind, case):
    read, header, row = READERS[kind]
    make, error = CASES[case]
    p = tmp_path / f"{kind}.csv"
    p.write_text(make(header, row))
    with pytest.raises(error, match="empty" if case == "empty" else "row 2"):
        read(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", ["scenarios", "observations"])
def test_readers_reject_non_finite_cells(tmp_path, kind, cell):
    """A NaN or infinite scenario or observation would reach the scores."""
    read, header, row = READERS[kind]
    p = tmp_path / f"{kind}.csv"
    p.write_text(f"{header}\n{row[:-3]}{cell}\n")
    with pytest.raises(ParseError, match="day 2012-01-01"):
        read(p)


def test_scenario_reader_block_growth_matches_float(tmp_path):
    """2,500 rows in shuffled order grow the reader's float block twice; every
    value equals a per-row float() parse, and a bad cell past the first growth
    raises ParseError naming its row."""
    rng = np.random.default_rng(9)
    forms = [lambda v: format(v, ".17g"), lambda v: f" {v:.6g}", lambda v: format(v, ".3e"),
             lambda v: "-0", lambda v: "1_0", lambda v: "\u0661.5", lambda v: "1e-400"]
    rows = []
    for d in [date(2013, 5, 1 + i) for i in range(25)]:
        for number in range(1, 101):
            cells = [forms[i](v) for i, v in zip(rng.integers(0, len(forms), 24),
                                                 rng.standard_normal(24) * 100)]
            rows.append([d.isoformat(), str(number)] + cells)
    rows = [rows[i] for i in rng.permutation(len(rows))]
    lines = ["day,scenario," + HOURS_HEADER] + [",".join(r) for r in rows]
    p = tmp_path / "scenarios.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")

    want: dict = {}
    for r in rows:
        want.setdefault(date.fromisoformat(r[0]), {})[int(r[1])] = [float(c) for c in r[2:]]
    got = dif.read_scenarios(p)
    assert sorted(got) == sorted(want)
    for d, by_number in want.items():
        ref = np.array([by_number[n] for n in range(1, 101)])
        assert np.array_equal(got[d], ref)
        assert np.array_equal(np.signbit(got[d]), np.signbit(ref))

    row_no = 1500
    bad = lines[row_no - 1].split(",")
    bad[7] = "0x10"
    lines[row_no - 1] = ",".join(bad)
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^row {row_no}: could not convert string to float"):
        dif.read_scenarios(p)


TOKENS = st.one_of(
    st.sampled_from(["", " ", "nan", "inf", "-1", "1e400", "0.7", "24", "x",
                     "2012-02-30", "2012-01-02", '"', ",", "\x00"]),
    st.text(st.characters(codec="utf-8"), max_size=8),
)


@st.composite
def mutations(draw, lines):
    """`lines` with one cell, one row or the header changed."""
    lines = list(lines)
    where = draw(st.sampled_from(["cell", "row", "header"]))
    i = 0 if where == "header" else draw(st.integers(1, len(lines) - 1))
    if where == "row" and draw(st.booleans()):
        if draw(st.booleans()):
            del lines[i]
        else:
            lines.insert(i, lines[i])
    elif where == "row":
        lines[i] = draw(TOKENS)
    else:
        cells = lines[i].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(TOKENS)
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory with a data CSV of three full days and a scenario and an
    observation file that cover the same two days, and each file's lines."""
    base = tmp_path_factory.mktemp("valid")
    days = [date(2012, 1, 1), date(2012, 1, 2)]
    rng = np.random.default_rng(0)
    sets = [dif.ScenarioSet(d, 3, rng.uniform(0, 1, (3, 24)), np.zeros(1)) for d in days]
    dif.write_scenarios(sets, base / "scenarios.csv")
    obs = dmod.Dataset(samples=[dmod.DaySample(d, "pv", 1, rng.uniform(0, 1, 24), np.zeros(24))
                                for d in days])
    dmod.write_observations(obs, base / "observations.csv", split="learn")
    dmod.write_csv(dmod.generate_synthetic(3, 0, "sine_pv"), base / "data.csv")
    return base, {kind: (base / f"{kind}.csv").read_text().splitlines() for kind in READERS}


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_csv_parses_or_raises_package_error(valid, tmp_path, capsys, kind, data):
    base, files = valid
    text = data.draw(mutations(files[kind]))
    p = tmp_path / f"{kind}.csv"
    p.write_bytes(text.encode("utf-8"))
    try:
        READERS[kind][0](p)
    except ScendiffError:
        pass

    if kind == "data":
        # generate loads and splits the data before it looks for a checkpoint
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(p)}))
        argv = ["generate", "--config", str(cfg), "--checkpoint", str(tmp_path / "none.ckpt")]
    else:
        paths = {k: base / f"{k}.csv" for k in ("scenarios", "observations")}
        paths[kind] = p
        argv = ["evaluate", "--scenarios", str(paths["scenarios"]),
                "--observations", str(paths["observations"])]
    capsys.readouterr()
    rc = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if rc == 0:
        assert err == ""
    else:
        assert rc in (2, 3, 4, 5, 6)
        lines = err.splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}
