"""The CLI's accepted-value table, `cli._SPECS`, against what the CLI does.

A table-driven sweep runs every numeric flag at its table edges and at
extreme values, by flag and by config file, and checks the exit-code
contract: 0, 1 or 2; a failure prints one `error:` line, nothing on
stdout, and writes no file; a value just outside the table exits 2 naming
its key; a success writes only finite numbers, probabilities and
fidelities in [0, 1] and a symmetric J.  `--help` and the README's input
tables are checked against the table too.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from ionqsim import cli
from ionqsim.cli import run

# what a table entry without accepted values takes: an int64, a finite float
_UNBOUNDED = {int: (-2**63, 2**63 - 1), float: (-sys.float_info.max, sys.float_info.max)}
# extreme values for every numeric flag, by flag and by config file
_EXTREMES = [0, -1, 5e-324, 1e308, -1e308, 2**63, 2**64]
# by config file only: a flag value cannot spell them in JSON's form
_NON_FINITE = [math.nan, math.inf, -math.inf]
# a count in this span would start real allocations (estimate --n 100000
# builds a ~20 GB Gauss-Legendre companion matrix), so it is swept only
# where the table rejects it before any work
_MID_SIZE = (10**4, 2**40)

_SPEC_FILE = {"variant": "depolarizing", "lambda": 0.2}
_COUNTS = {"on_mean": "5", "off_mean": "0.2", "threshold": "1"}
_RUNLENGTH = {"mode": "runlength", "pairs": "200"}

# (command, base parameters, the keys swept on it: None for every numeric
# key the base reads); small, so that a swept value decides the cost.  A
# swept key replaces its base value.
_BASES = [
    ("rabi", {"points": "3"}, None),
    ("rabi", {"points": "3", "ramsey": True}, None),
    ("zeno", {"fractions": "1,2", "sequences": "20"}, None),
    ("zeno", dict(_RUNLENGTH), None),
    ("zeno", {"fractions": "1,2", "sequences": "20", **_COUNTS}, _COUNTS),
    ("zeno", {**_RUNLENGTH, **_COUNTS}, _COUNTS),
    ("estimate", {"n": "2", "states": "3"}, None),
    # |delta_eta| <= lambda: the whole delta_eta range passes the ball rule
    ("estimate", {"n": "2", "states": "3", "lambda": "0.5", "strategy": "random"},
     {"delta_eta"}),
    ("channel", {"spec": "spec.json", "shots": "20"}, None),
    ("chain", {"n": "3"}, None),
    ("chain", {"n": "3", "no_weak_field": True, "b0": "0.001"}, None),
]


def _reads(command, base, key):
    """Whether a run of `base` reads `key`: a key it does not read, or one
    count flag without the other two, exits 2 whatever its value."""
    if key in _COUNTS and key not in base:
        return False
    params = {name: entry[1] for name, entry in cli._SPECS[command].items()}
    params.update(base)
    return not any(key in keys and holds(params)
                   for _when, holds, keys in cli._UNREAD.get(command, ()))


def _sweep_cases():
    for command, base, keys in _BASES:
        for key, (typ, *_rest) in cli._SPECS[command].items():
            if typ in (int, float) and _reads(command, base, key) and (keys is None or key in keys):
                yield pytest.param(command, base, key,
                                   id=f"{command}-{'-'.join(base)}-{key}".replace("_", "-"))


def _edges(typ, accepted):
    """(value, inside) at each edge of the accepted values, just inside
    and just outside."""
    low, high = accepted
    if typ is int:
        return [(low, True), (high, True), (low + 1, True), (high - 1, True),
                (low - 1, False), (high + 1, False)]
    return [(low, True), (high, True), (math.nextafter(low, high), True),
            (math.nextafter(high, low), True), (math.nextafter(low, -math.inf), False),
            (math.nextafter(high, math.inf), False)]


def _values(typ, accepted):
    """(value, inside, by_flag) for one swept key; inside is None where
    the table alone does not decide."""
    values = [(v, inside, by_flag) for v, inside in _edges(typ, accepted)
              for by_flag in (True, False)]
    values += [(v, None, by_flag) for v in _EXTREMES for by_flag in (True, False)]
    values += [(v, None, False) for v in _NON_FINITE]
    return [(v, inside, by_flag) for v, inside, by_flag in values
            if not (typ is int and isinstance(v, int) and _MID_SIZE[0] < v < _MID_SIZE[1]
                    and accepted[0] <= v <= accepted[1])]


def _argv(command, params):
    argv = [command]
    for name, value in params.items():
        flag = "--" + name.replace("_", "-")
        argv += [flag] if value is True else [f"{flag}={value}"]
    return argv


def _numbers(value):
    """Every number in a JSON value."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def _check_csv(path, unit_columns):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    columns, rows = lines[0].split(","), [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert rows and all(math.isfinite(x) for row in rows for x in row), path.name
    for name in unit_columns:
        col = columns.index(name)
        assert all(0.0 <= row[col] <= 1.0 for row in rows), (path.name, name)


# the probability or fidelity columns of each CSV artifact
_UNIT_COLUMNS = {"rabi": ["p1"], "zeno": ["theory"], "estimate": ["fidelity"]}


def _check_artifacts(command, out):
    if command in _UNIT_COLUMNS:
        _check_csv(out, _UNIT_COLUMNS[command])
    if command in ("rabi", "zeno"):
        return
    payload = json.loads((out.with_suffix(".json") if command == "estimate" else out).read_text())
    assert all(math.isfinite(x) for x in _numbers(payload))
    if command == "estimate":
        assert 0.0 <= payload["mean"] <= 1.0
    if command == "chain":
        j = np.array(payload["J_hz"])
        assert np.all(np.abs(j - j.T) <= 1e-12 * np.abs(j).max())


@pytest.mark.parametrize("command, base, key", _sweep_cases())
def test_exit_code_contract(tmp_path, monkeypatch, capsys, command, base, key):
    typ, _default, _help, *accepted = cli._SPECS[command][key]
    accepted = accepted[0] if accepted else _UNBOUNDED[typ]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(_SPEC_FILE))
    inputs = {"spec.json", "cfg.json"}
    for value, inside, by_flag in _values(typ, accepted):
        params = {k: v for k, v in base.items() if k != key}
        if by_flag:
            params[key] = repr(value)
            (tmp_path / "cfg.json").write_text("{}")
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        call = f"{_argv(command, params)} with {key}={value!r} by {'flag' if by_flag else 'config'}"
        code = run(_argv(command, params) + ["--config=cfg.json", "--out=out.csv"])
        captured = capsys.readouterr()
        written = sorted(p.name for p in tmp_path.iterdir() if p.name not in inputs)
        assert code in (0, 1, 2), call
        if code:
            assert captured.out == "", call
            lines = captured.err.splitlines()
            assert lines and [line for line in lines if "error: " in line] == lines[-1:], \
                (call, captured.err)
            assert written == [], call
        else:
            _check_artifacts(command, tmp_path / "out.csv")
            for name in written:
                (tmp_path / name).unlink()
        if inside is False:
            assert code == 2 and repr(key) in captured.err, (call, captured.err)
        if typ is float and accepted is _UNBOUNDED[float] and not math.isfinite(value):
            assert code == 2 and f"error: {key!r} must be finite, got {value!r}" in captured.err, \
                (call, captured.err)


@pytest.mark.parametrize("command", list(cli._SPECS))
def test_help_shows_each_accepted_range(capsys, command):
    assert run([command, "--help"]) == 0
    shown = " ".join(capsys.readouterr().out.split())
    for name, (typ, _default, _help, *accepted) in cli._SPECS[command].items():
        if accepted:
            assert f"accepted: {cli._accepted_text(typ, accepted[0])}" in shown, name


def _readme_row(name, typ, default, _help, *accepted):
    """The README input-table row of one `_SPECS` entry, as its cells."""
    if typ is bool:
        kind, default, text = "switch", "off", "—"
    else:
        kind = {int: "int", float: "float", str: "text"}[typ]
        default = "—" if default is None else repr(default) if typ is float else str(default)
        text = (cli._accepted_text(typ, accepted[0]) if accepted
                else {int: "int64", float: "finite", str: "any"}[typ])
    return [f"`--{name.replace('_', '-')}`", kind, default, text]


def test_readme_input_tables_match_the_table():
    """Each `#### <command>` table under the README's "### Inputs" lists
    the command's `_SPECS` entries in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n### Inputs\n", 1)[1].split("\n### ", 1)[0]
    tables, command = {}, None
    for line in section.splitlines():
        if line.startswith("#### "):
            command = line[len("#### "):].strip("`")
            tables[command] = []
        elif line.startswith("| `--"):
            cells = line.replace("\\|", "\x00").strip("|").split("|")
            tables[command].append([c.strip().replace("\x00", "|") for c in cells])
    assert tables == {command: [_readme_row(name, *entry) for name, entry in spec.items()]
                      for command, spec in cli._SPECS.items()}


# one value just outside each range the library checks as well, and a species
# spelt in another case: each exits 2 naming its key first (argv, key)
@pytest.mark.parametrize("argv, key", [
    (["rabi", "--rabi-khz=-1"], "rabi_khz"),
    (["rabi", "--tmax-ms=-1"], "tmax_ms"),
    (["zeno", "--eta0", "0.4"], "eta0"),
    (["zeno", "--prep-efficiency", "0"], "prep_efficiency"),
    (["zeno", "--sequences", "0"], "sequences"),
    (["zeno", "--threshold=-1", "--on-mean", "5", "--off-mean", "0.2"], "threshold"),
    (["zeno", "--on-mean", "691", "--off-mean", "0.2", "--threshold", "1"], "on_mean"),
    (["zeno", "--mode", "runlength", "--pairs", "0"], "pairs"),
    (["estimate", "--n", "0"], "n"),
    (["estimate", "--states", "0"], "states"),
    (["chain", "--n", "0"], "n"),
    (["chain", "--nu1-khz", "0"], "nu1_khz"),
    (["chain", "--gradient=-1"], "gradient"),
    (["chain", "--species", "YB171"], "species"),
])
def test_value_outside_its_table_entry_is_named(tmp_path, monkeypatch, capsys, argv, key):
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--out=out.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key!r} ") and captured.err.count("\n") == 1, \
        captured.err
    assert list(tmp_path.iterdir()) == []
