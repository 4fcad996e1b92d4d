"""CLI surface: commands, formats, exit codes."""

import json
import os
import resource
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from smyth import FinitePoset, PowerdomainSpace, build, cli
from smyth.cli import main
from smyth.docio import point_lists
from smyth.poset import iter_bits
from smyth.suite import FIXTURE_DOCS

from conftest import assert_valid_dot, no_joins

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = FIXTURES.parent / "src"


def smyth_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "smyth", *args]


def run_smyth(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        smyth_command(*args), capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
    )


def write_payload(tmp_path, payload, name="doc.json"):
    target = tmp_path / name
    target.write_text(json.dumps(payload))
    return str(target)


def vee_file(tmp_path):
    return write_payload(tmp_path, FIXTURE_DOCS[0], "vee.json")


def chain2_file(tmp_path):
    return write_payload(tmp_path, FIXTURE_DOCS[1], "chain2.json")


def test_shipped_fixtures_match_registry():
    names = ["vee.json", "chain2.json", "discrete3.json", "grid4x4.json"]
    for name, payload in zip(names, FIXTURE_DOCS):
        on_disk = json.loads((FIXTURES / name).read_text())
        assert on_disk == payload


def test_powerdomain_command(tmp_path, capsys):
    assert main(["powerdomain", vee_file(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out == (
        "points: 4\n"
        "dimension: 2\n"
        "0: {a1}\n"
        "1: {a2}\n"
        "2: {a1,a2}\n"
        "3: {a1,a2,b}\n"
    )


def test_powerdomain_hat(tmp_path, capsys):
    assert main(["powerdomain", vee_file(tmp_path), "--hat"]) == 0
    out = capsys.readouterr().out
    assert "points: 5" in out
    assert "0: {}" in out


def test_powerdomain_inverse(tmp_path, capsys):
    assert main(["powerdomain", vee_file(tmp_path), "--inverse"]) == 0
    out = capsys.readouterr().out
    assert "points: 4" in out
    assert "0: {b}" in out


def test_powerdomain_dot_export(tmp_path, capsys):
    dot = tmp_path / "out.dot"
    assert main(["powerdomain", vee_file(tmp_path), "--dot", str(dot)]) == 0
    nodes, edges = assert_valid_dot(dot.read_text())
    assert (nodes, edges) == (4, 3)


def test_powerdomain_flag_conflict(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["powerdomain", vee_file(tmp_path), "--hat", "--inverse"])
    assert info.value.code == 2


def test_map_apply(tmp_path, capsys):
    code = main(
        [
            "map",
            "apply",
            vee_file(tmp_path),
            chain2_file(tmp_path),
            "--assign",
            "0:0,1:0,2:1",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "{a1} -> {c1}\n"
        "{a2} -> {c1}\n"
        "{a1,a2} -> {c1}\n"
        "{a1,a2,b} -> {c1,c2}\n"
    )


def test_map_apply_rejects_non_monotone(tmp_path, capsys):
    code = main(
        ["map", "apply", chain2_file(tmp_path), chain2_file(tmp_path), "--assign", "0:1,1:0"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_map_apply_assignment_parsing(tmp_path, capsys):
    bad_assignments = ["0:0", "0:0,0:1,2:0", "0:0,1:0,2:9", "0=1", "x:0,1:0,2:1",
                       "0:-1,0:0,1:0,2:1", "0:-1"]
    for assignment in bad_assignments:
        code = main(
            [
                "map",
                "apply",
                vee_file(tmp_path),
                chain2_file(tmp_path),
                "--assign",
                assignment,
            ]
        )
        assert code == 2, assignment
        err = capsys.readouterr().err
        assert "error:" in err
        if "-1" in assignment:
            assert "target index -1 is out of range" in err


def test_check_passes_on_fixture(tmp_path, capsys):
    assert main(["check", vee_file(tmp_path), "--suite", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    reports = [json.loads(line) for line in lines]
    assert len(reports) == 11
    assert all(r["verdict"] != "fail" for r in reports)
    assert {r["property"] for r in reports} >= {
        "embedding-theorem",
        "functor-laws",
        "sup-extension",
        "fixture-expectations",
    }


def test_check_suite_choice(tmp_path, capsys):
    assert main(["check", vee_file(tmp_path), "--suite", "embedding"]) == 0
    reports = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert len(reports) == 6


def test_check_fails_on_corruption(tmp_path, capsys):
    payload = dict(FIXTURE_DOCS[0])
    payload["covers"] = [[0, 1], [1, 2]]
    target = write_payload(tmp_path, payload, "corrupt.json")
    assert main(["check", target, "--suite", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    bad = [json.loads(x) for x in lines if json.loads(x)["verdict"] == "fail"]
    assert bad
    for report in bad:
        assert "witness" in report
        assert "instance" in report["witness"]


def test_check_files_a_lift_defect_as_a_failure(lift_defect, capsys):
    """A wrong lift is a failed law (exit 1), not an error (exit 2)."""
    assert main(["check", str(FIXTURES / "vee.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    reports = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["property"] for r in reports if r["verdict"] == "fail"] == [
        "functor-laws", "extension-minimality", "lift-round-trip"]


def test_check_files_an_undefined_sharp_as_a_failure(monkeypatch, tmp_path, capsys):
    """A point with no sup of its principal points is a failed law of
    ``sup-extension-of-embedding`` (exit 1), not an error (exit 2); the
    identity's missing sup stays a skip of ``sup-extension``."""
    from smyth import completion

    monkeypatch.setattr(completion, "_sups", no_joins(completion._sups))
    path = write_payload(tmp_path, {"n": 2, "covers": []})
    assert main(["check", path, "--suite", "sigma"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    reports = [json.loads(line) for line in captured.out.splitlines()]
    assert [(r["property"], r["verdict"]) for r in reports] == [
        ("sup-extension", "skipped"),
        ("sup-extension-of-embedding", "fail"),
    ]
    assert reports[0]["reason"].startswith("not sup-complete")
    witness = reports[1]["witness"]
    assert (witness["law"], witness["member_mask"]) == ("sharp-is-defined", 0b11)


def test_check_sigma_on_a_six_element_antichain(tmp_path, capsys):
    """Sup-preservation is tested per point, so the 63-point powerdomain
    needs no walk over its millions of antichains."""
    path = write_payload(tmp_path, {"n": 6, "covers": []})
    assert main(["check", path, "--suite", "sigma"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    reports = [json.loads(line) for line in captured.out.splitlines()]
    assert [(r["property"], r["verdict"]) for r in reports] == [
        ("sup-extension", "skipped"),
        ("sup-extension-of-embedding", "pass"),
    ]
    assert reports[0]["reason"].startswith("not sup-complete")


def test_check_default_suite_is_all(tmp_path, capsys):
    assert main(["check", vee_file(tmp_path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 11


def test_enumerate_posets(capsys):
    assert main(["enumerate-posets", "--n", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 19
    docs = [json.loads(line) for line in lines]
    assert all(doc["n"] == 3 for doc in docs)
    assert {"covers": [], "n": 3} in docs


def test_enumerate_posets_over_cap(capsys):
    assert main(["enumerate-posets", "--n", "7"]) == 2
    assert "error:" in capsys.readouterr().err


def test_iterate(tmp_path, capsys):
    assert main(["iterate", vee_file(tmp_path), "--k", "2"]) == 0
    assert capsys.readouterr().out == "sizes: 3 4 5\n"


def test_iterate_counts_on_to_the_capacity(capsys):
    """The vee grows by one point per stage, so its sizes are counted on
    to the default capacity, with no build past the first stage."""
    assert main(["iterate", str(FIXTURES / "vee.json"), "--k", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "sizes: " + " ".join(map(str, range(3, 65537))) + "\n"
    assert captured.err == "capacity reached before the requested depth\n"


def test_iterate_truncated(tmp_path, capsys):
    path = write_payload(tmp_path, FIXTURE_DOCS[2], "discrete3.json")
    assert main(["iterate", path, "--k", "3", "--capacity", "80"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "sizes: 3 7 18\n"
    assert "capacity" in captured.err


def test_iterate_fourth_stage(tmp_path, capsys):
    path = write_payload(tmp_path, FIXTURE_DOCS[2], "discrete3.json")
    assert main(["iterate", path, "--k", "4"]) == 0
    assert capsys.readouterr().out == "sizes: 3 7 18 81 8569\n"


def test_light_commands_look_up_no_point(monkeypatch, tmp_path, capsys):
    """``powerdomain`` and ``stats`` on the 16-element antichain (65 535
    points) and ``iterate`` to the fourth stage make no point index."""
    lookups = []
    made = PowerdomainSpace.__dict__["point_index"].func

    def looking_up(space):
        lookups.append(len(space.points))
        return made(space)

    monkeypatch.setattr(PowerdomainSpace, "point_index", property(looking_up))
    antichain16 = write_payload(tmp_path, {"n": 16, "covers": []}, "antichain16.json")
    for args in (["powerdomain", antichain16], ["stats", antichain16],
                 ["iterate", str(FIXTURES / "discrete3.json"), "--k", "4"]):
        assert main(args) == 0
    assert capsys.readouterr().out.endswith("sizes: 3 7 18 81 8569\n")
    assert lookups == []


def test_stats_lists_only_the_previewed_points(monkeypatch, tmp_path, capsys):
    """``stats`` on the 16-element antichain (65 535 points) makes a member
    list for the eight points it prints, and prints what a list of every
    point, cut to eight, would."""
    listed = []

    def listing(mask):
        listed.append(mask)
        return iter_bits(mask)

    monkeypatch.setattr(cli, "iter_bits", listing)
    antichain16 = write_payload(tmp_path, {"n": 16, "covers": []}, "antichain16.json")
    assert main(["stats", antichain16]) == 0
    space = build(FinitePoset.from_cover_relations(16, []))
    assert listed == list(space.points[:8])
    preview = f"powerdomain_points_preview: {point_lists(space)[:8]}\n"
    assert capsys.readouterr().out.endswith(preview)


def test_stats(tmp_path, capsys):
    assert main(["stats", chain2_file(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "n: 2\n" in out
    assert "chain: True\n" in out
    assert "phi_onto: True\n" in out
    assert "powerdomain_dimension: 1\n" in out


def test_missing_file(capsys):
    assert main(["stats", "/definitely/not/here.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_document(tmp_path, capsys):
    target = tmp_path / "bad.json"
    target.write_text('{"n": 2, "covers": [[0, 5]]}')
    assert main(["check", str(target)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_command():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_capacity_flows_through_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPECTRAL_CAPACITY", "3")
    assert main(["powerdomain", vee_file(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    monkeypatch.delenv("SPECTRAL_CAPACITY")
    assert main(["powerdomain", vee_file(tmp_path)]) == 0
    capsys.readouterr()


def test_stats_at_capacity(tmp_path, capsys, monkeypatch):
    # vee's four points fit a capacity of 4; its opens are those points
    # and the empty set
    monkeypatch.setenv("SPECTRAL_CAPACITY", "4")
    assert main(["stats", vee_file(tmp_path)]) == 0
    assert "opens: 5\n" in capsys.readouterr().out


@pytest.mark.parametrize("content", [
    b"[" * 200000,
    b'{"n": 1, "labels": ["\xff"]}',
    b'{"n": 2, "covers": [[0, 1' + b"0" * 5000 + b"]]}",
], ids=["deep-nesting", "not-utf8", "long-number"])
def test_unreadable_document_bytes(tmp_path, content):
    target = tmp_path / "doc.json"
    target.write_bytes(content)
    result = run_smyth("stats", str(target))
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("content, key", [
    ('{"n": 3, "covers": [[0, 1]], "n": 4}', "n"),
    ('{"n": 2, "covers": [], "expect": {"point_count": 3, "point_count": 2}}',
     "point_count"),
], ids=["top-level", "in-expect"])
def test_repeated_document_key(tmp_path, content, key):
    target = tmp_path / "doc.json"
    target.write_text(content)
    result = run_smyth("stats", str(target))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: a JSON object repeats the key {key!r}\n"


def test_unwritable_dot_path(tmp_path):
    dot = tmp_path / "missing" / "out.dot"
    result = run_smyth("powerdomain", str(FIXTURES / "vee.json"), "--dot", str(dot))
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: cannot write {dot}")
    assert "Traceback" not in result.stderr
    assert not dot.exists()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["stats", "vee.json"],
    ["enumerate-posets", "--n", "4"],
    ["check", "vee.json"],
], ids=["stats", "enumerate-posets", "check"])
def test_full_output_device(argv):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            smyth_command(*argv), stdout=full, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
        )
    assert result.returncode == 2
    assert result.stderr.startswith("error: cannot write output: ")
    assert "Traceback" not in result.stderr


def limit_address_space(limit=1 << 30):
    """Cap the child's address space, by default at 1 GiB, a quarter of
    the rows of the 17-element antichain's powerdomain."""
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def antichain17_env(tmp_path, capacity):
    """The 17-element antichain's document, and an environment with
    ``capacity`` as SPECTRAL_CAPACITY, or none."""
    path = write_payload(tmp_path, {"n": 17, "covers": []})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SPECTRAL_CAPACITY", None)
    if capacity is not None:
        env["SPECTRAL_CAPACITY"] = capacity
    return path, env


@pytest.mark.parametrize("capacity, dot, message", [
    (None, False, "error: more than 65536 down-sets on 17 elements"),
    ("200000", True, "error: out of memory"),
], ids=["default-capacity", "past-memory"])
def test_rows_past_memory(tmp_path, capacity, dot, message):
    # 131 071 points: within 200 000, past the default 2**16; the DOT
    # output reads the covers, and so the rows
    path, env = antichain17_env(tmp_path, capacity)
    extra = ["--dot", str(tmp_path / "out.dot")] if dot else []
    result = subprocess.run(
        smyth_command("powerdomain", path, *extra), capture_output=True, text=True,
        env=env, timeout=60, preexec_fn=limit_address_space,
    )
    assert (result.returncode, result.stderr) == (2, message + "\n")


def test_powerdomain_past_default_capacity_makes_no_rows(tmp_path):
    # the points and the dimension of 131 071 points fit in 1 GiB;
    # the rows would take 4 GiB
    path, env = antichain17_env(tmp_path, "200000")
    result = subprocess.run(
        smyth_command("powerdomain", path), capture_output=True, text=True,
        env=env, timeout=60, preexec_fn=limit_address_space,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("points: 131071\ndimension: 16\n")


def test_stats_makes_no_rows(tmp_path):
    # the 16-element antichain's 65 535 points under 256 MiB; the rows
    # would take 1 GB
    path = write_payload(tmp_path, {"n": 16, "covers": []})
    result = subprocess.run(
        smyth_command("stats", path), capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
        preexec_fn=partial(limit_address_space, 256 << 20),
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert "powerdomain_dimension: 15\n" in result.stdout


def test_large_builds_make_no_rows():
    # the 16-element antichain: 65 535 and 65 536 points, whose rows
    # would take 2 GB, four times the cap
    code = (
        "from smyth import build, hat_powerdomain\n"
        "from smyth.poset import FinitePoset\n"
        "base = FinitePoset.from_cover_relations(16, [])\n"
        "print(len(build(base).points), len(hat_powerdomain(base).points))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
        preexec_fn=partial(limit_address_space, 512 << 20),
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "65535 65536\n", "")


def test_iterate_makes_no_rows_for_its_last_stage():
    # 28 MiB holds the interpreter with smyth loaded (about 19 MiB on
    # CPython 3.11 on Linux), but not it with the rows of the 8569-point
    # order as well (about 35 MiB)
    result = subprocess.run(
        smyth_command("iterate", str(FIXTURES / "discrete3.json"), "--k", "4"),
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60, preexec_fn=partial(limit_address_space, 28 << 20),
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        0, "sizes: 3 7 18 81 8569\n", "")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("n, lines_read", [(5, 1), (3, 0)], ids=["head-1", "closed-first"])
def test_closed_output_pipe(unbuffered, n, lines_read):
    # "head-1" reads one line and closes the pipe, as ``| head -1`` does;
    # the 4231 posets fill far more than the pipe buffer holds.
    # "closed-first" closes it before the 19 posets are written, so
    # buffered output is still pending at the final flush.
    proc = subprocess.Popen(
        smyth_command("enumerate-posets", "--n", str(n)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered),
    )
    for _ in range(lines_read):
        assert json.loads(proc.stdout.readline())["n"] == n
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert stderr == ""
