"""The CSV input boundary: the data, scenario and observation readers turn
every malformed file into a typed package error, and the CLI reports it as
one JSON line with a documented exit code."""
import json
import math
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
    # dates are YYYY-MM-DD only: Python 3.11's date.fromisoformat alone would
    # also read the basic form and a week date (2012-W01-1 is 2012-01-02)
    "basic_date": (lambda header, row: f"{header}\n{row.replace('2012-01-01', '20120101')}\n",
                   ParseError),
    "week_date": (lambda header, row: f"{header}\n{row.replace('2012-01-01', '2012-W01-1')}\n",
                  ParseError),
    "short_row": (lambda header, row: f"{header}\n{row.rsplit(',', 1)[0]}\n", SchemaError),
    "non_numeric": (lambda header, row: f"{header}\n{row[:-3]}abc\n", ParseError),
    # numpy's C parser: `#` starts no comment, quotes are not stripped, and a
    # date cell is cut at its string field, so a cell that fills it is refused
    "hash_in_number": (lambda header, row: f"{header}\n{row}#x\n", ParseError),
    "quoted_number": (lambda header, row: f'{header}\n{row[:-3]}"0.5"\n', ParseError),
    "extra_cell": (lambda header, row: f"{header}\n{row},0.5\n", SchemaError),
    "long_date": (lambda header, row: f"{header}\n"
                  f"{row.replace('2012-01-01', '2012-01-01' + ' ' * 6 + 'x')}\n", ParseError),
    # a string field also drops a trailing NUL
    "nul_in_date": (lambda header, row: header + "\n" + row.replace("01,", "01\0,", 1) + "\n",
                    ParseError),
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


@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_name_the_file_line_past_blank_lines(tmp_path, kind):
    """np.loadtxt skips empty lines; the error still names the line in the file."""
    read, header, row = READERS[kind]
    p = tmp_path / f"{kind}.csv"
    p.write_text(f"{header}\n\n{row}\n\n\n{row[:-3]}abc\n")
    with pytest.raises(ParseError, match="^row 6: could not convert string to float: 'abc'$"):
        read(p)


def _as_arrays(parsed):
    if isinstance(parsed, dict):
        return {d: v.tolist() for d, v in parsed.items()}
    return [(s.day_id, s.zone, s.x.tolist(), s.c.tolist()) for s in parsed.samples]


@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_accept_cr_and_mixed_line_ends(valid, tmp_path, kind):
    """CR-only and mixed CRLF/LF/CR files read as the CRLF file does."""
    read = READERS[kind][0]
    lines = valid[1][kind]
    p = tmp_path / f"{kind}.csv"
    p.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    want = _as_arrays(read(p))
    assert want
    ends = ["\r\n", "\n", "\r"]
    for text in ("\r".join(lines) + "\r",
                 "".join(line + ends[i % 3] for i, line in enumerate(lines))):
        p.write_bytes(text.encode())
        assert _as_arrays(read(p)) == want


def test_scenario_reader_counts_a_crlf_split_between_scan_blocks(tmp_path):
    """The readers size their table by the file's line ends, counted in 1 MiB
    blocks. A CRLF whose CR ends one block is one line end, and the last row
    of a file over 1 MiB is read."""
    header, row = READERS["scenarios"][1:]
    rows = [row.replace(",1,", f",{k + 1},", 1) for k in range(10_000)]
    cr = (1 << 20) - 1  # the byte offset the CR of one row must land on
    end = len(header)  # offset of the CR ending each line
    for i, r in enumerate(rows):
        if end + 2 + len(r) > cr:
            rows[i - 1] = rows[i - 1].rpartition(",")[0] + "," + " " * (cr - end) + "0.5"
            break
        end += 2 + len(r)
    text = "\r\n".join([header] + rows) + "\r\n"
    assert text[cr:cr + 2] == "\r\n"
    p = tmp_path / "scenarios.csv"
    p.write_bytes(text.encode())
    assert dmod._line_ends(p) == len(rows) + 1
    scen = dif.read_scenarios(p)[date(2012, 1, 1)]
    assert scen.shape == (len(rows), 24) and (scen == 0.5).all()


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
    """2,500 rows in shuffled order; every value equals a per-row float() parse
    for each form both parsers accept, a `_` separator or a non-ASCII digit,
    which float() takes and the reader does not, raises ParseError naming its
    file line, and so does a bad cell deep in the file."""
    rng = np.random.default_rng(9)
    forms = [lambda v: format(v, ".17g"), lambda v: f" {v:.6g}", lambda v: format(v, ".3e"),
             lambda v: "-0", lambda v: "1e-400"]
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

    # float() takes these; numpy's C parser, and so the reader, does not
    for row_no, cell in ((700, "1_0"), (2100, "\u0661.5")):
        assert math.isfinite(float(cell))
        bad = list(lines)
        cells = bad[row_no - 1].split(",")
        cells[7] = cell
        bad[row_no - 1] = ",".join(cells)
        p.write_text("\n".join(bad) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^row {row_no}: could not convert string "
                                             f"to float: '{cell}'$"):
            dif.read_scenarios(p)

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
