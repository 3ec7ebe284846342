import fcntl
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import altperm
from altperm import __version__, bijection, cache as cache_module, cli
from altperm.cache import _RECORD, CountCache, query_key
from altperm.cli import main
from altperm.diagrams import all_diagrams, alternating_configs, valid_transversals
from altperm.equivalence import SWEEPS
from altperm.perms import DescentType, parse_class, parse_perm
from altperm.verify import SUITES


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("ALTPERM_CACHE", str(tmp_path / "cache"))
    yield


def test_cache_round_trip(tmp_path):
    cache = CountCache(tmp_path / "c")
    assert cache.get((2, 1, 3, 4), DescentType(3), 8) is None
    cache.put((2, 1, 3, 4), DescentType(3), 8, 153)
    assert cache.get((2, 1, 3, 4), DescentType(3), 8) == 153
    # reload from disk
    again = CountCache(tmp_path / "c")
    assert again.get((2, 1, 3, 4), DescentType(3), 8) == 153
    assert len(again) == 1
    assert query_key((2, 1, 3, 4), DescentType(3), 8) == "2134|dk:3|8"


def test_count_command(capsys):
    assert main(["count", "--pattern", "634521", "--class", "alt", "--n", "8"]) == 0
    assert capsys.readouterr().out.strip() == "1385"
    assert main(["count", "--pattern", "21", "--class", "all", "--n", "4"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["count", "--pattern", "2134", "--class", "dk:3", "--n", "8"]) == 0
    assert capsys.readouterr().out.strip() == "153"


def test_count_json_schema_and_cache_flag(capsys):
    args = ["count", "--pattern", "2134", "--class", "dk:3", "--n", "7", "--json"]
    assert main(args) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["query"] == {"pattern": "2134", "class": "dk:3", "n": 7}
    assert rec["count"] == 44 and rec["cached"] is False
    assert isinstance(rec["elapsed_ms"], float)
    assert rec["states"] > 0
    assert main(args) == 0
    rec2 = json.loads(capsys.readouterr().out)
    assert rec2["cached"] is True and rec2["count"] == 44 and rec2["states"] == 0
    assert main(args + ["--verify"]) == 0
    rec3 = json.loads(capsys.readouterr().out)
    assert rec3["cached"] is False and rec3["count"] == 44
    assert rec3["states"] == rec["states"]


def test_count_verify_checks_the_store_and_stores_only_a_miss(tmp_path, capsys):
    args = ["count", "--pattern", "2134", "--class", "dk:3", "--n", "7", "--verify"]
    store = tmp_path / "cache" / "counts.jsonl"
    # a cold run appends exactly one record
    assert main(args) == 0 and capsys.readouterr().out == "44\n"
    (line,) = store.read_text(encoding="utf-8").splitlines()
    record = json.loads(line)
    assert (record["key"], record["count"], record["version"]) == ("2134|dk:3|7", 44, __version__)
    # a warm run that agrees appends no byte
    stored = store.read_bytes()
    assert main(args) == 0 and capsys.readouterr().out == "44\n"
    assert store.read_bytes() == stored
    # a record of this version with a wrong count is reported and left as it is
    store.write_text(_line("2134|dk:3|7", 45) + "\n", encoding="utf-8")
    stored = store.read_bytes()
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cache held 45 but recomputation gives 44\n"
    assert store.read_bytes() == stored


def test_count_verify_compares_the_two_readings_before_the_store(tmp_path, monkeypatch, capsys):
    args = ["count", "--pattern", "2134", "--class", "dk:3", "--n", "7", "--verify"]
    store = tmp_path / "cache" / "counts.jsonl"
    store.parent.mkdir()
    store.write_text(_line("2134|dk:3|7", 46) + "\n", encoding="utf-8")
    stored = store.read_bytes()
    # a bottom-up reading that disagrees is reported, and the store is not
    # compared with either count
    monkeypatch.setattr(cli, "sequence", lambda *args, **kwargs: [45])
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: top-down count 44 but bottom-up count 45\n"
    assert store.read_bytes() == stored


def test_count_parse_error(capsys):
    assert main(["count", "--pattern", "122", "--class", "alt", "--n", "4"]) == 2
    assert main(["count", "--pattern", "21", "--class", "bogus", "--n", "4"]) == 2
    capsys.readouterr()
    for n in ("-1", "255"):
        assert main(["count", "--pattern", "21", "--class", "alt", "--n", n]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
    # no length has a boundary below 1, and a comma list has no empty field
    for cls in ("dset:0", "aset:-1", "dset:1,,3", "aset:,2"):
        assert main(["count", "--pattern", "12", "--class", cls, "--n", "4"]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize(
    "argv, field, text",
    [
        (["count", "--pattern", "12", "--class", "dk:x", "--n", "4"], "x", "dk:x"),
        (["count", "--pattern", "1,x", "--class", "alt", "--n", "4"], "x", "1,x"),
        (["count", "--pattern", "1x", "--class", "alt", "--n", "4"], "x", "1x"),
        (["count", "--pattern", "12", "--class", "dset:1,y", "--n", "4"], "y", "1,y"),
        (["trace", "--diagram", "3,x;A=;D=", "--transversal", "21"], "x", "3,x"),
    ],
)
def test_integer_parse_error_names_the_field_and_its_text(argv, field, text, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not an integer: {field!r} in {text!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--pattern", "21", "--class", "alt", "--n", "4", "--budget", "-1"],
        ["tables", "4rep", "--budget", "-0.5"],
        ["tables", "4rep", "--max-n", "0"],
        ["conjecture", "dk-2134", "--budget", "nan"],
        ["verify", "eboard", "--rows", "0"],
        ["verify", "shape2", "--rows", "-1"],
        ["verify", "doubling", "--k", "-1"],
        ["verify", "injections", "--n", "0"],
    ],
)
def test_out_of_range_option_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_cache_skips_a_torn_line(tmp_path, capsys):
    cache = CountCache(tmp_path / "cache")
    cache.put(parse_perm("2134"), DescentType(3), 7, 44)
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write('{"key": "2134|dk:3|8", "cou')
    args = ["count", "--pattern", "2134", "--class", "dk:3", "--n", "7", "--json"]
    assert main(args) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["count"] == 44 and rec["cached"] is True
    # a record written after the torn line is not swallowed by it
    assert main(["count", "--pattern", "2134", "--class", "dk:3", "--n", "8"]) == 0
    again = CountCache(tmp_path / "cache")
    assert again.get(parse_perm("2134"), DescentType(3), 8) == 153
    assert len(again) == 2


def test_cache_skips_a_record_of_another_version(tmp_path, capsys):
    cache = CountCache(tmp_path / "cache")
    cache.directory.mkdir(parents=True)
    cache.path.write_text(
        json.dumps({"key": "2134|dk:3|8", "count": 999, "version": "0.0.0"}) + "\n",
        encoding="utf-8",
    )
    assert CountCache(tmp_path / "cache").get(parse_perm("2134"), DescentType(3), 8) is None
    assert main(["count", "--pattern", "2134", "--class", "dk:3", "--n", "8"]) == 0
    assert capsys.readouterr().out.strip() == "153"


def test_every_line_put_writes_has_the_record_form(tmp_path):
    cache = CountCache(tmp_path / "cache")
    for n, count in ((7, 44), (8, 153)):
        cache.put(parse_perm("2134"), DescentType(3), n, count)
    cache.put(parse_perm("123"), parse_class("all"), 4, 14)
    text = cache.path.read_bytes()
    lines = text.splitlines()
    assert text.endswith(b"\n") and len(lines) == 3
    assert all(_RECORD.fullmatch(line) for line in lines)


def test_cache_load_waits_for_an_append_under_the_lock(tmp_path):
    cache = CountCache(tmp_path / "cache")
    cache.put(parse_perm("2134"), DescentType(3), 7, 44)
    record = json.dumps(
        {"key": "2134|dk:3|8", "count": 153, "version": __version__, "ts": 0.0}
    )
    with open(cache.path, "ab") as writer:
        fcntl.flock(writer, fcntl.LOCK_EX)

        def append_then_release():
            time.sleep(0.2)
            writer.write(record.encode() + b"\n")
            writer.flush()
            fcntl.flock(writer, fcntl.LOCK_UN)

        thread = threading.Thread(target=append_then_release)
        t0 = time.perf_counter()
        thread.start()
        reader = CountCache(tmp_path / "cache")
        waited = time.perf_counter() - t0
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert waited >= 0.15
    assert reader.get(parse_perm("2134"), DescentType(3), 8) == 153
    assert len(reader) == 2


@pytest.mark.parametrize(
    "bad_line",
    [
        b"\xff\xfe garbage\n",
        # a count that json.loads reads as inf
        b'{"key": "123|all|5", "count": 1e400, "version": "%s", "ts": 1}\n'
        % __version__.encode(),
        # more digits than int() reads
        b'{"key": "123|all|5", "count": %s, "version": "%s", "ts": 1}\n'
        % (b"1" * 5000, __version__.encode()),
    ],
    ids=["not-utf8", "inf-count", "long-count"],
)
def test_cache_skips_a_line_it_cannot_read(bad_line, tmp_path, capsys):
    store = tmp_path / "cache" / "counts.jsonl"
    store.parent.mkdir()
    record = json.dumps({"key": "123|all|4", "count": 14, "version": __version__, "ts": 0.0})
    store.write_bytes(bad_line + record.encode() + b"\n")
    assert main(["count", "--pattern", "123", "--class", "all", "--n", "4", "--json"]) == 0
    captured = capsys.readouterr()
    rec = json.loads(captured.out)
    assert rec["count"] == 14 and rec["cached"] is True and captured.err == ""
    assert len(CountCache(tmp_path / "cache")) == 1


_KEYS = ["2134|dk:3|8", "12|all|4", "1,10,2,3,4,5,6,7,8,9|alt|10"]
_QUERIES = {
    key: (parse_perm(pattern), parse_class(label), int(n))
    for key in _KEYS
    for pattern, label, n in [key.split("|")]
}
_VERSIONS = [__version__, "0.0.0"]


# Lines that hold a record but not in the form put writes; the load skips them
_NOT_PUT_FORM = [
    lambda line: line[: len(line) // 2],  # torn
    lambda line: json.dumps(dict(reversed(json.loads(line).items()))),
    lambda line: json.dumps(json.loads(line), separators=(",", ":")),
    lambda line: line + "\r",  # ends in \r\n
    lambda line: line.replace('"count": ', '"count": 0'),
]


@st.composite
def _store(draw):
    """A store's text and the entries a load of it must give: the last
    record of the package's version for each key, among the lines in put's
    form."""
    lines, entries = [], {}
    for _ in range(draw(st.integers(0, 12))):
        key, version = draw(st.sampled_from(_KEYS)), draw(st.sampled_from(_VERSIONS))
        count = draw(st.integers(0, 10**12))
        ts = draw(st.floats(0, 2e9))
        line = json.dumps({"key": key, "count": count, "version": version, "ts": ts})
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(_NOT_PUT_FORM))(line))
            continue
        lines.append(line)
        if version == __version__:
            entries[key] = count
    text = "".join(line + "\n" for line in lines)
    if lines and draw(st.booleans()):
        text = text[:-1]  # no final newline
    return text, entries


@settings(max_examples=300, deadline=None)
@given(_store(), st.sampled_from([1, 5, 40, cache_module._BLOCK]), st.permutations(_KEYS))
def test_cache_loads_the_last_record_of_each_key_in_put_form(store, block, order):
    # small blocks split records across reads and put a torn line or an
    # older record of a key at a block edge
    text, entries = store
    with tempfile.TemporaryDirectory() as directory, mock.patch.object(
        cache_module, "_BLOCK", block
    ):
        (Path(directory) / "counts.jsonl").write_text(text, encoding="utf-8")
        cache = CountCache(directory)
        for key in order:
            assert cache.get(*_QUERIES[key]) == entries.get(key)
        assert len(cache) == len(entries)


def _line(key, count, version=__version__):
    return json.dumps({"key": key, "count": count, "version": version, "ts": 0.0})


@settings(max_examples=300, deadline=None)
@given(_store(), st.sampled_from([1, 5, 40, cache_module._BLOCK]))
# the key's record prefix in a newer line after a hand edit put text before it
@example((_line("12|all|4", 3) + "\n# " + _line("12|all|4", 9) + "\n", {"12|all|4": 3}), 40)
# ... starting a newer line of another version, or a torn one
@example((_line("12|all|4", 3) + "\n" + _line("12|all|4", 9, "0.0.0") + "\n", {"12|all|4": 3}), 40)
@example((_line("12|all|4", 3) + "\n" + _line("12|all|4", 9)[:40], {"12|all|4": 3}), 40)
# ... cut by the block edge 40 bytes before the end
@example((_line("12|all|4", 3) + "\n", {"12|all|4": 3}), 40)
def test_cache_searches_for_the_last_record_of_a_key_in_put_form(store, block):
    # each key goes to a fresh cache, so the answer comes from its search
    text, entries = store
    with tempfile.TemporaryDirectory() as directory, mock.patch.object(
        cache_module, "_BLOCK", block
    ):
        (Path(directory) / "counts.jsonl").write_text(text, encoding="utf-8")
        for key in _KEYS:
            assert CountCache(directory).get(*_QUERIES[key]) == entries.get(key)


def test_cache_lookup_reads_no_byte_past_the_end_the_load_noted(tmp_path):
    # a line torn at the noted end and finished after the load is not read
    line = _line("12|all|4", 9)
    (tmp_path / "counts.jsonl").write_text(line[:40], encoding="utf-8")
    searching, parsing = CountCache(tmp_path), CountCache(tmp_path)
    assert parsing.get(*_QUERIES["2134|dk:3|8"]) is None
    with open(tmp_path / "counts.jsonl", "a", encoding="utf-8") as fh:
        fh.write(line[40:] + "\n")
    assert searching.get(*_QUERIES["12|all|4"]) is None
    assert parsing.get(*_QUERIES["12|all|4"]) is None
    assert CountCache(tmp_path).get(*_QUERIES["12|all|4"]) == 9


class _RecordSpy:
    """The record pattern, noting the bytes each findall parses and each
    line a search matches."""

    def __init__(self, pattern):
        self.pattern, self.blocks, self.lines = pattern, [], []

    def findall(self, block, pos=0):
        self.blocks.append(block[pos:])
        return self.pattern.findall(block, pos)

    def match(self, block, pos, endpos):
        self.lines.append(block[pos:endpos + 1])
        return self.pattern.match(block, pos, endpos)


def test_cache_parses_older_blocks_only_as_a_lookup_needs(tmp_path, monkeypatch):
    writer, pattern, cls = CountCache(tmp_path / "cache"), parse_perm("2134"), DescentType(3)
    writer.put(pattern, cls, 1, 100)
    for n in range(2, 12):
        writer.put(pattern, cls, n, n)
    writer.put(pattern, cls, 1, 1)
    with open(writer.path, "a", encoding="utf-8") as fh:
        fh.write(_line("2134|dk:3|12", 12, "0.0.0") + "\n")
    stored = writer.path.read_bytes()
    monkeypatch.setattr(cache_module, "_BLOCK", 200)
    spy = _RecordSpy(_RECORD)
    monkeypatch.setattr(cache_module, "_RECORD", spy)
    # a first lookup parses no block: a hit matches the newest line of its key
    assert CountCache(tmp_path / "cache").get(pattern, cls, 1) == 1
    assert spy.blocks == [] and spy.lines == [stored.splitlines(True)[-2]]
    reader = CountCache(tmp_path / "cache")
    assert reader.get(pattern, cls, 12) is None and len(spy.lines) == 2
    # put makes no lookup
    reader.put(pattern, cls, 12, 12)
    assert spy.blocks == [] and len(spy.lines) == 2
    # once the instance holds a count, a lookup parses blocks until its key
    # turns up, and a miss parses each older byte once, newest block first;
    # the records put appends after the load are not read back
    reader.put(pattern, cls, 1, 5)
    assert len(spy.blocks) == 0
    assert reader.get(pattern, cls, 13) is None
    parsed = len(spy.blocks)
    assert parsed > 3 and b"".join(reversed(spy.blocks)) == stored
    # what put added wins over the older records of its keys
    assert reader.get(pattern, cls, 1) == 5 and reader.get(pattern, cls, 12) == 12
    assert reader.get(pattern, cls, 2) == 2
    assert len(reader) == 12 and len(spy.blocks) == parsed and len(spy.lines) == 2
    # a miss is not an entry
    missed = CountCache(tmp_path / "cache")
    assert missed.get(pattern, cls, 13) is None and len(missed) == 12


def test_cache_lookup_after_the_store_is_removed(tmp_path):
    writer, pattern, cls = CountCache(tmp_path / "cache"), parse_perm("2134"), DescentType(3)
    writer.put(pattern, cls, 7, 44)
    reader = CountCache(tmp_path / "cache")
    writer.path.unlink()
    assert reader.get(pattern, cls, 7) is None and len(reader) == 0
    reader.put(pattern, cls, 7, 44)
    assert CountCache(tmp_path / "cache").get(pattern, cls, 7) == 44


def test_count_budget_exceeded(capsys):
    rc = main(
        ["count", "--pattern", "1234", "--class", "all", "--n", "11", "--budget", "0"]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: budget exceeded\n" and captured.out == ""


def test_count_budget_is_checked_at_every_node(capsys):
    # the count alone takes more than ten times the budget
    t0 = time.perf_counter()
    rc = main(
        ["count", "--pattern", "4321", "--class", "all", "--n", "30", "--budget", "0.5"]
    )
    assert rc == 1
    assert time.perf_counter() - t0 < 5.0
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error: budget exceeded")


def test_tables_4rep(capsys):
    assert main(["tables", "4rep"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "patterns,1,2,3,4,5,6,7,8,9"
    assert len(out) == 6
    assert out[1] == "1342,1,1,1,2,5,9,20,64,143"
    assert out[5].endswith("1,1,1,3,9,9,44,153,153")


def test_tables_determinism_and_cache(capsys):
    assert main(["tables", "6even", "--max-n", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["tables", "6even", "--max-n", "4"]) == 0
    second = capsys.readouterr().out
    assert first == second
    for line in first.strip().splitlines()[1:]:
        assert line.endswith(",1,5")


def test_verify_command(capsys):
    assert main(["verify", "shape2", "--rows", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "FAIL" not in out


def test_verify_bijection_rows_bound_the_semialternating_sweep(capsys):
    assert main(["verify", "bijection", "--rows", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "PASS block-avoiding counts agree on 1-alternating triples, <= 2 rows",
        "PASS full maps are mutually inverse bijections",
        "PASS single steps invert each other on separable transversals",
        "PASS semialternating case via corner embedding, <= 2 rows",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "doubling", "--rows", "2"],
        ["verify", "shape2", "--k", "2"],
        ["verify", "eboard", "--n", "3"],
        ["conjecture", "sesa", "--n", "5"],
        ["conjecture", "dk-2134", "--rows", "3"],
    ],
)
def test_a_size_flag_the_command_does_not_read_is_an_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize(
    "command, table, names",
    [
        ("verify", SUITES, ["bijection", "eboard", "extension", "doubling", "injections", "shape2"]),
        ("conjecture", SWEEPS, ["sesa", "decreasing", "dk-2134", "dk-1243"]),
    ],
)
def test_the_choices_are_the_table_keys_in_order(command, table, names, capsys):
    # an unknown name is an argument error that lists the choices
    assert list(table) == names
    with pytest.raises(SystemExit) as exc:
        main([command, "nope"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    choices = ", ".join(map(repr, names))
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        f"invalid choice: 'nope' (choose from {choices})"
    )


def test_conjecture_command(capsys):
    assert main(["conjecture", "dk-2134", "--k", "3", "--n", "8"]) == 0
    assert "no counterexample" in capsys.readouterr().out
    assert main(["conjecture", "sesa", "--k", "3", "--rows", "3"]) == 0


@pytest.mark.parametrize("which", ["sesa", "decreasing", "dk-2134", "dk-1243"])
def test_conjecture_budget_is_honoured(which, capsys):
    # each sweep alone takes more than ten times the budget
    size = ["--rows", "8"] if which == "sesa" else ["--n", "14"]
    t0 = time.perf_counter()
    rc = main(["conjecture", which, "--k", "5", *size, "--budget", "0.2"])
    assert rc == 1
    assert time.perf_counter() - t0 < 5.0
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith(f"error: budget exceeded during the {which} sweep at k=")


def test_conjecture_decreasing_budget_zero_stops_at_the_first_block_size(capsys):
    assert main(["conjecture", "decreasing", "--budget", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget exceeded during the decreasing sweep at k=3\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["conjecture", "sesa", "--k", "2"],
        ["conjecture", "decreasing", "--k", "2"],
        ["conjecture", "dk-2134", "--k", "0"],
        ["conjecture", "sesa", "--rows", "-1"],
        ["conjecture", "decreasing", "--n", "-1"],
        # a table whose first column is past --max-n
        ["tables", "6even", "--max-n", "1"],
    ],
)
def test_conjecture_rejects_an_empty_sweep(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: empty")


def test_tables_budget_zero_is_a_budget(capsys):
    assert main(["tables", "4rep", "--budget", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: budget exceeded\n" and captured.out == ""


def test_tables_budget_exceeded(capsys):
    assert main(["tables", "6even", "--budget", "0.2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: budget exceeded\n" and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--pattern", "21", "--class", "alt", "--n", "4"],
        ["count", "--pattern", "21", "--class", "alt", "--n", "4", "--verify"],
        ["tables", "4rep", "--max-n", "3"],
    ],
)
def test_a_cache_directory_that_is_a_file_is_a_one_line_error(
    argv, tmp_path, monkeypatch, capsys
):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("ALTPERM_CACHE", str(blocker))
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith("error: ") and str(blocker) in err[0]


def test_trace_command(capsys):
    rc = main(
        ["trace", "--diagram", "5,5,5,5,5;A=1,3;D=2,4", "--transversal", "35241"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("0 phi triple=(1, 3, 5) type=1")
    assert lines[-1].startswith("fixpoint after 2 steps")
    # a transversal with no decreasing block traces zero steps
    rc = main(["trace", "--diagram", "4,4,4,4;A=;D=", "--transversal", "1234"])
    assert rc == 0
    assert "fixpoint after 0 steps" in capsys.readouterr().out


def test_trace_lines_name_each_step_selection_and_type(capsys):
    """Each line's copy and type are those the step selects at its `before`
    transversal, the lines chain, and the walk ends at the last `after`."""
    def word(text):
        return tuple(map(int, text.split(",")))

    lines = 0
    for r in range(1, 5):
        for Y in all_diagrams(r, r):
            for ady in alternating_configs(Y):
                for T in valid_transversals(ady):
                    for extra, direction in (([], "phi"), (["--psi"], "psi")):
                        argv = ["trace", "--diagram", str(ady), "--transversal", ",".join(map(str, T))]
                        rc = main(argv + extra)
                        captured = capsys.readouterr()
                        if rc == 2:  # a walk reached a transversal that is not separable
                            assert captured.err.startswith("error: step defined on separable")
                            continue
                        assert rc == 0
                        *steps, last = captured.out.splitlines()
                        cur = T
                        for index, line in enumerate(steps):
                            head, before, arrow, after = line.rsplit(" ", 3)
                            assert arrow == "->" and word(before) == cur
                            j_copy, f_copy = bijection.selected_copies(ady, cur)
                            if direction == "phi":
                                a, t = j_copy, bijection.classify_j(ady, cur, j_copy)
                            else:
                                a, t = f_copy, bijection.classify_f(ady, cur, f_copy)[0]
                            assert head == f"{index} {direction} triple={a} type={t}"
                            cur = word(after)
                        assert last == f"fixpoint after {len(steps)} steps: {','.join(map(str, cur))}"
                        lines += len(steps)
    assert lines > 40


def test_trace_prints_the_steps_taken_before_a_step_raises(monkeypatch, capsys):
    # the walk from 35241 takes two steps; the second one refuses here
    real = bijection.phi

    def refuse_after_one(ady, T, copies=None):
        if T != (3, 5, 2, 4, 1):
            raise bijection.StepError("step defined on separable transversals only")
        return real(ady, T, copies)

    monkeypatch.setattr(bijection, "phi", refuse_after_one)
    rc = main(["trace", "--diagram", "5,5,5,5,5;A=1,3;D=2,4", "--transversal", "35241"])
    assert rc == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("0 phi triple=(1, 3, 5) type=1 3,5,2,4,1 -> ")
    assert captured.err == "error: step defined on separable transversals only\n"


def test_trace_rejects_invalid_transversal(capsys):
    rc = main(["trace", "--diagram", "4,4,2,2;A=;D=3", "--transversal", "3412"])
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize(
    "diagram, transversal",
    [("3,,3,3;A=1,,;D=2", "132"), (" , 2,,1,;A=;D=", "21"), ("2,2;A=,;D=", "12")],
)
def test_trace_parse_error(diagram, transversal, capsys):
    # an empty field in a comma list is rejected, not dropped
    rc = main(["trace", "--diagram", diagram, "--transversal", transversal])
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith("error: empty field in the comma-separated list")


def test_a_broken_lemma_is_not_reported_as_a_rejected_input(monkeypatch):
    def broken(ady, T, copies=None):
        raise bijection.LemmaViolation("planted")

    monkeypatch.setattr(bijection, "phi", broken)
    with pytest.raises(bijection.LemmaViolation, match="planted"):
        main(["trace", "--diagram", "5,5,5,5,5;A=1,3;D=2,4", "--transversal", "35241"])


def test_the_exit_status_of_the_cli_process(tmp_path):
    env = dict(
        os.environ,
        ALTPERM_CACHE=str(tmp_path),
        PYTHONPATH=str(Path(altperm.__file__).parents[1]),
    )

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "altperm.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    ok = run("count", "--pattern", "634521", "--class", "alt", "--n", "8")
    assert ok.returncode == 0 and ok.stdout == "1385\n"
    stopped = run("count", "--pattern", "1234", "--class", "all", "--n", "11", "--budget", "0")
    assert stopped.returncode == 1 and stopped.stderr == "error: budget exceeded\n"
    rejected = run("count", "--pattern", "122", "--class", "alt", "--n", "4")
    err = rejected.stderr.splitlines()
    assert rejected.returncode == 2 and rejected.stdout == ""
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize(
    "diagram, transversal",
    [
        # a valid transversal, but the triple is not 1-alternating
        ("3,3,3;A=;D=2", "321"),
        # a 1-alternating triple, but the transversal is not separable
        ("4,4,4,4;A=;D=", "3214"),
    ],
)
def test_trace_outside_the_maps_domain_is_an_error(diagram, transversal, capsys):
    rc = main(["trace", "--diagram", diagram, "--transversal", transversal])
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error:")
