"""Command line interface: plumbing, exit codes, determinism, JSON."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from splitclust import gen_random, write_graph
from splitclust.cli import run

BAD_TRIANGLE_CCG = "ccg 3 complete\ne 0 1 b\ne 1 2 b\n"
MARKING_CCG = (
    "ccg 10 complete\n"
    + "e 0 1 b\ne 1 2 b\n"
    + "".join(f"e 1 {x} b\n" for x in range(3, 10))
    + "".join(
        f"e {x} {y} b\n" for x in range(3, 10) for y in range(x + 1, 10)
    )
)


def invoke(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.ccg"
    path.write_text(BAD_TRIANGLE_CCG)
    return str(path)


def test_stats_text(triangle_file):
    code, out, err = invoke(["stats", triangle_file])
    assert code == 0 and err == ""
    assert out == (
        "n 3\nkind complete\nblue 2\nred 1\n"
        "blue-components 1\ncluster-graph no\nlower-bound 1\n"
    )


def test_stats_json(triangle_file):
    code, out, _ = invoke(["stats", "--json", triangle_file])
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "stats"
    assert obj["input"] == triangle_file
    assert obj["result"] == {
        "n": 3,
        "complete": True,
        "blue": 2,
        "red": 1,
        "blue_components": 1,
        "cluster_graph": False,
    }
    assert obj["bound"] == 1


def test_stdin_dash():
    code, out, _ = invoke(["lb", "-"], stdin_text=BAD_TRIANGLE_CCG)
    assert code == 0 and out == "1\n"


def test_stdin_with_byte_buffer():
    stdin = io.TextIOWrapper(io.BytesIO(BAD_TRIANGLE_CCG.encode()))
    out, err = io.StringIO(), io.StringIO()
    assert run(["lb", "-"], stdin=stdin, stdout=out, stderr=err) == 0
    assert out.getvalue() == "1\n"


def test_decide_exit_codes(triangle_file):
    code, out, _ = invoke(["decide", triangle_file, "--budget", "1"])
    assert (code, out) == (0, "yes\n")
    code, out, _ = invoke(["decide", triangle_file, "--budget", "0"])
    assert (code, out) == (1, "no\n")
    code, out, _ = invoke(["decide", "--json", triangle_file, "--budget", "0"])
    assert code == 1 and json.loads(out)["result"] is False


def test_exact(triangle_file):
    code, out, _ = invoke(["exact", triangle_file])
    assert code == 0
    assert out == "clustering 2\nc 0 1 2\nc 2\n"
    code, out, err = invoke(["exact", triangle_file, "--budget", "0"])
    assert code == 1 and out == "" and "no clustering" in err
    code, out, _ = invoke(["exact", "--json", triangle_file])
    obj = json.loads(out)
    assert obj["result"] == [[0, 1, 2], [2]] and obj["cost"] == 1


def test_exact_node_limit(triangle_file):
    code, _, err = invoke(["exact", triangle_file, "--node-limit", "1"])
    assert code == 3 and "node" in err


def test_exact_node_limit_names_level(tmp_path):
    # deepening starts at level 3 on this graph and trips the limit at 4
    path = tmp_path / "random10.ccg"
    path.write_bytes(write_graph(gen_random(10, 0.5, 0.5, complete=True, seed=0)))
    code, out, err = invoke(["exact", str(path), "--node-limit", "100"])
    assert (code, out) == (3, "")
    assert err == "splitclust: search aborted after 101 nodes at cost level 4\n"


def test_approx(triangle_file):
    code, out, _ = invoke(["approx", triangle_file])
    assert code == 0
    assert out == "clustering 4\nc 0 1 2\nc 0\nc 1\nc 2\n"


def test_approx_guess_all(tmp_path):
    path = tmp_path / "g.ccg"
    path.write_text("ccg 5 complete\ne 0 1 b\ne 1 2 b\ne 0 3 b\ne 0 4 b\n")
    code, out, _ = invoke(["approx", str(path), "--guess-all"])
    assert code == 0
    assert out.startswith("guess 3 cost 4\n")
    assert "guess 4 cost 4\n" in out and "guess - cost 5\n" in out
    code, out, _ = invoke(["approx", "--json", str(path), "--guess-all"])
    obj = json.loads(out)
    assert [c["guess"] for c in obj["result"]] == [[3], [4], None]
    assert [c["cost"] for c in obj["result"]] == [4, 4, 5]


def test_kernel_and_lift(tmp_path):
    graph = tmp_path / "g.ccg"
    graph.write_text(MARKING_CCG)
    transcript = tmp_path / "g.ktx"
    code, out, _ = invoke(
        ["kernel", str(graph), "--budget", "2", "--transcript", str(transcript)]
    )
    assert code == 0
    assert out == (
        "ccg 7 complete\n"
        "e 0 1 b\ne 1 2 b\ne 1 3 b\ne 1 4 b\ne 1 5 b\ne 1 6 b\n"
        "e 3 4 b\ne 3 5 b\ne 3 6 b\ne 4 5 b\ne 4 6 b\ne 5 6 b\n"
    )
    assert transcript.read_bytes() == b"S 0 1 2 3\ncl 4 5 6 7 8 9 | 4 5 6 | 7 8 9\n"

    kernel_graph = tmp_path / "kernel.ccg"
    kernel_graph.write_text(out)
    code, solved, _ = invoke(["exact", str(kernel_graph), "--budget", "2"])
    assert code == 0
    solution = tmp_path / "kernel.clu"
    solution.write_text(solved)
    code, lifted, _ = invoke(
        ["lift", str(solution), "--transcript", str(transcript)]
    )
    assert code == 0
    assert lifted == "clustering 3\nc 0 1 2\nc 1 3 4 5 6 7 8 9\nc 2\n"

    lifted_file = tmp_path / "lifted.clu"
    lifted_file.write_text(lifted)
    code, out, _ = invoke(["verify", str(graph), str(lifted_file)])
    assert (code, out) == (0, "")


def test_kernel_no_instance(triangle_file):
    code, out, _ = invoke(["kernel", triangle_file, "--budget", "0"])
    assert (code, out) == (1, "no-instance weight 1\n")
    code, out, _ = invoke(["kernel", "--json", triangle_file, "--budget", "0"])
    assert code == 1
    assert json.loads(out)["result"] == {"kind": "no-instance", "weight": 1}


def test_lift_rejects_broken_solution(tmp_path):
    transcript = tmp_path / "t.ktx"
    transcript.write_bytes(b"S 0 1 2 3\ncl 4 5 6 7 8 9 | 4 5 6 | 7 8 9\n")
    bad = tmp_path / "bad.clu"
    bad.write_text("clustering 3\nc 0 1 2 3 4\nc 5\nc 6\n")
    code, out, err = invoke(["lift", str(bad), "--transcript", str(transcript)])
    assert code == 1 and out == "" and "no cluster contains" in err


def test_verify_invalid(tmp_path, triangle_file):
    clu = tmp_path / "f.clu"
    clu.write_text("clustering 1\nc 0 1 2\n")
    code, out, _ = invoke(["verify", triangle_file, str(clu)])
    assert code == 1
    assert out == "invalid\nunresolved-red 0 2\n"
    code, out, _ = invoke(["verify", "--json", triangle_file, str(clu)])
    obj = json.loads(out)
    assert obj["valid"] is False
    assert obj["result"]["unresolved_red"] == [[0, 2]]


def test_reduce_chain(tmp_path, triangle_file):
    code, mcvs, _ = invoke(
        ["reduce", "ccvs-to-mcvs", triangle_file, "--budget", "1"]
    )
    assert code == 0
    assert mcvs == "mcvs 3 2 1 1\ne 0 1\ne 1 2\nt 0 2\n"
    mcvs_file = tmp_path / "inst.mcvs"
    mcvs_file.write_text(mcvs)

    code, ccg, _ = invoke(["reduce", "mcvs-to-ccvs", str(mcvs_file)])
    assert code == 0
    assert ccg == "# budget 1\nccg 3 incomplete\ne 0 1 b\ne 0 2 r\ne 1 2 b\n"

    clu = tmp_path / "f.clu"
    clu.write_text("clustering 2\nc 0 1\nc 1 2\n")
    code, mcsol, _ = invoke(["reduce", "clu-to-mcsol", triangle_file, str(clu)])
    assert code == 0
    assert mcsol == "mcsol 3\ns 1 : 0 | 2\n"
    mcsol_file = tmp_path / "sol.mcsol"
    mcsol_file.write_text(mcsol)

    code, back, _ = invoke(
        ["reduce", "mcsol-to-clu", str(mcvs_file), str(mcsol_file)]
    )
    assert code == 0
    assert back == "clustering 2\nc 0 1\nc 1 2\n"


def test_reduce_errors(tmp_path, triangle_file):
    code, _, err = invoke(["reduce", "ccvs-to-mcvs", triangle_file, triangle_file])
    assert code == 2 and "input document" in err
    mcvs = tmp_path / "i.mcvs"
    mcvs.write_text("mcvs 3 2 1 1\ne 0 1\ne 1 2\nt 0 2\n")
    sol = tmp_path / "s.mcsol"
    sol.write_text("mcsol 4\n")
    code, _, err = invoke(["reduce", "mcsol-to-clu", str(mcvs), str(sol)])
    assert code == 2 and "4 vertices" in err
    big = tmp_path / "big.ccg"
    big.write_text("ccg 100000 complete\n")
    code, out, err = invoke(["reduce", "ccvs-to-mcvs", str(big)])
    assert code == 2 and out == "" and "4999950000 red pairs" in err


def test_gen_random_deterministic():
    argv = [
        "gen", "random", "--n", "6", "--p-blue", "0.5", "--p-red", "0.5",
        "--complete", "--seed", "11",
    ]
    code, first, _ = invoke(argv)
    assert code == 0 and first.startswith("ccg 6 complete\n")
    code, second, _ = invoke(argv)
    assert first == second


def test_gen_gadgets():
    code, out, _ = invoke(
        ["gen", "vc-gadget", "--n", "3", "--edges", "0-1,1-2", "--budget", "1"]
    )
    assert code == 0
    assert out == (
        "ccg 5 complete\n"
        "e 0 2 b\ne 0 3 b\ne 0 4 b\ne 1 3 b\ne 1 4 b\ne 2 3 b\ne 2 4 b\ne 3 4 b\n"
    )
    code, out, _ = invoke(
        ["gen", "coloring-gadget", "--n", "3", "--edges", "0-1,0-2,1-2", "--colors", "3"]
    )
    assert code == 0
    assert out == "mcvs 4 3 3 2\ne 0 3\ne 1 3\ne 2 3\nt 0 1\nt 0 2\nt 1 2\n"
    code, _, err = invoke(["gen", "vc-gadget", "--n", "3", "--edges", "xy", "--budget", "1"])
    assert code == 2 and "0-1" in err
    # ids follow the documents' integer rule: no "_", "+", other digits or spaces
    for edges in ["1_0-2", "+1-2", "\u0663-1", " 1-2", "1-2 ", "0-" + "1" * 5000]:
        code, out, err = invoke(
            ["gen", "vc-gadget", "--n", "3", "--edges", edges, "--budget", "1"]
        )
        assert code == 2 and out == "" and "must join two integers" in err, edges


def test_usage_and_format_errors(tmp_path, triangle_file):
    code, _, err = invoke(["no-such-command"])
    assert code == 2 and err.startswith("splitclust:")
    code, _, err = invoke(["decide", triangle_file])
    assert code == 2  # --budget is required
    code, _, err = invoke(["lb", str(tmp_path / "missing.ccg")])
    assert code == 2
    bad = tmp_path / "bad.ccg"
    bad.write_text("ccg nope\n")
    code, _, err = invoke(["stats", str(bad)])
    assert code == 2 and "line 1" in err
    incomplete = tmp_path / "inc.ccg"
    incomplete.write_text("ccg 3 incomplete\ne 0 1 b\n")
    code, _, err = invoke(["lb", str(incomplete)])
    assert code == 2  # lower bound needs a complete graph


def test_identical_invocations_are_byte_identical(triangle_file):
    for argv in (
        ["stats", triangle_file],
        ["exact", triangle_file],
        ["approx", triangle_file],
        ["kernel", triangle_file, "--budget", "1"],
        ["reduce", "ccvs-to-mcvs", triangle_file, "--budget", "2"],
    ):
        assert invoke(argv) == invoke(argv)


def test_one_process_runs_match_separate_processes(tmp_path, triangle_file):
    # the parser is built once per process; a usage error must leave it
    # fit for the invocations after it
    clu = tmp_path / "f.clu"
    clu.write_text("clustering 1\nc 0 1 2\n")
    runs = (
        ["verify", triangle_file],  # missing clustering: usage error
        ["verify", triangle_file, str(clu)],
        ["reduce", "ccvs-to-mcvs", triangle_file, "--budget", "1"],
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    separate = []
    for argv in runs:
        proc = subprocess.run(
            [sys.executable, "-c", "from splitclust.cli import main; main()", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        separate.append((proc.returncode, proc.stdout))
    together = [invoke(argv)[:2] for argv in runs]
    assert together == separate
    assert [code for code, _ in together] == [2, 1, 0]
