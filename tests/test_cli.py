"""Command line interface: plumbing, exit codes, determinism, JSON."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitclust.graphs
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


def test_stats_labels_blue_components_once(triangle_file, monkeypatch):
    real = splitclust.graphs._blue_labels
    labelled = []

    def counting(g):
        labelled.append(g.n)
        return real(g)

    monkeypatch.setattr(splitclust.graphs, "_blue_labels", counting)
    assert invoke(["stats", triangle_file])[0] == 0
    assert labelled == [3]


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
    code, out, err = invoke(["exact", str(path), "--node-limit", "20"])
    assert (code, out) == (3, "")
    assert err == "splitclust: search aborted after 21 nodes at cost level 4\n"


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


@pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"]])
def test_help_goes_to_the_given_stdout(argv):
    code, out, err = invoke(argv)
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(["usage: splitclust", *argv[:-1], "[-h]"]))


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


# Every subcommand in both modes with each outcome it has, pinned to the byte.
# A case is an argv line; " <name" feeds that file on stdin.  Runs start in a
# directory holding GOLDEN_FILES, so paths in the output stay short and fixed.
GOLDEN_FILES = {
    "t.ccg": BAD_TRIANGLE_CCG,
    "m.ccg": MARKING_CCG,
    "s.ccg": "ccg 5 complete\ne 0 1 b\ne 1 2 b\ne 0 3 b\ne 0 4 b\n",
    "inc.ccg": "ccg 3 incomplete\ne 0 1 b\ne 1 2 r\n",
    "bad.ccg": "ccg nope\n",
    "empty.ccg": "ccg 0 complete\n",
    "big.ccg": "ccg 100000 complete\n",
    "ok.clu": "clustering 2\nc 0 1\nc 1 2\n",
    "one.clu": "clustering 1\nc 0 1 2\n",
    "bad.clu": "clustering x\n",
    "k.clu": "clustering 2\nc 0 1 2\nc 1 3 4 5 6\n",
    "kbad.clu": "clustering 3\nc 0 1 2 3 4\nc 5\nc 6\n",
    # a solution of the kernel of gen_random(4, .5, .5, complete=True, seed=1)
    # at budget 1 that leaves kernel vertex 2 in no cluster
    "r1.clu": "clustering 1\nc 0 1\n",
    "g1.ktx": "S 1 2 3\nrc 0\n",
    "far.clu": "clustering 2\nc 0 1\nc 1 2 3\n",
    "m.ktx": "S 0 1 2 3\ncl 4 5 6 7 8 9 | 4 5 6 | 7 8 9\n",
    "bad.ktx": "Q\n",
    "t.mcvs": "mcvs 3 2 1 1\ne 0 1\ne 1 2\nt 0 2\n",
    "bad.mcvs": "mcvs 3\n",
    "t.mcsol": "mcsol 3\ns 1 : 0 | 2\n",
    "four.mcsol": "mcsol 4\n",
    "part.mcsol": "mcsol 3\ns 1 : 0\n",
}

GOLDEN = [
    (
        "stats t.ccg", 0,
        "n 3\nkind complete\nblue 2\nred 1\nblue-components 1\ncluster-graph no\n"
        "lower-bound 1\n",
        "",
    ),
    (
        "stats --json t.ccg", 0,
        '{"command": "stats", "input": "t.ccg", "result": {"n": 3, "complete": true, '
        '"blue": 2, "red": 1, "blue_components": 1, "cluster_graph": false}, "bound": '
        "1}\n",
        "",
    ),
    (
        "stats inc.ccg", 0,
        "n 3\nkind incomplete\nblue 1\nred 1\nblue-components 2\ncluster-graph yes\n",
        "",
    ),
    (
        "stats --json inc.ccg", 0,
        '{"command": "stats", "input": "inc.ccg", "result": {"n": 3, "complete": '
        'false, "blue": 1, "red": 1, "blue_components": 2, "cluster_graph": true}}\n',
        "",
    ),
    (
        "stats - <s.ccg", 0,
        "n 5\nkind complete\nblue 4\nred 6\nblue-components 1\ncluster-graph no\n"
        "lower-bound 1\n",
        "",
    ),
    (
        "stats bad.ccg", 2, "",
        "splitclust: line 1: expected 'ccg <n> complete|incomplete'\n",
    ),
    (
        "stats --json missing.ccg", 2, "",
        "splitclust: [Errno 2] No such file or directory: 'missing.ccg'\n",
    ),
    ("stats", 2, "", "splitclust: the following arguments are required: graph\n"),
    ("lb t.ccg", 0, "1\n", ""),
    (
        "lb --json t.ccg", 0,
        '{"command": "lb", "input": "t.ccg", "result": 1, "bound": 1}\n',
        "",
    ),
    (
        "lb --json - <t.ccg", 0,
        '{"command": "lb", "input": "-", "result": 1, "bound": 1}\n',
        "",
    ),
    (
        "lb inc.ccg", 2, "",
        "splitclust: bad star forests are defined on complete graphs\n",
    ),
    (
        "lb --json inc.ccg", 2, "",
        "splitclust: bad star forests are defined on complete graphs\n",
    ),
    (
        "lb --json bad.ccg", 2, "",
        "splitclust: line 1: expected 'ccg <n> complete|incomplete'\n",
    ),
    ("decide t.ccg --budget 1", 0, "yes\n", ""),
    (
        "decide --json t.ccg --budget 1", 0,
        '{"command": "decide", "input": "t.ccg", "result": true}\n',
        "",
    ),
    ("decide t.ccg --budget 0", 1, "no\n", ""),
    (
        "decide --json t.ccg --budget 0", 1,
        '{"command": "decide", "input": "t.ccg", "result": false}\n',
        "",
    ),
    (
        "decide m.ccg --budget 3 --node-limit 1", 3, "",
        "splitclust: search aborted after 2 nodes at cost level 2\n",
    ),
    (
        "decide --json m.ccg --budget 3 --node-limit 1", 3, "",
        "splitclust: search aborted after 2 nodes at cost level 2\n",
    ),
    (
        "decide t.ccg", 2, "",
        "splitclust: the following arguments are required: --budget\n",
    ),
    (
        "decide t.ccg --budget x", 2, "",
        "splitclust: argument --budget: invalid int value: 'x'\n",
    ),
    (
        "decide t.ccg --budget -1", 2, "",
        "splitclust: budget must be a non-negative integer, got -1\n",
    ),
    (
        "decide --json bad.ccg --budget 1", 2, "",
        "splitclust: line 1: expected 'ccg <n> complete|incomplete'\n",
    ),
    ("exact t.ccg", 0, "clustering 2\nc 0 1 2\nc 2\n", ""),
    (
        "exact --json t.ccg", 0,
        '{"command": "exact", "input": "t.ccg", "result": [[0, 1, 2], [2]], "cost": '
        "1}\n",
        "",
    ),
    ("exact s.ccg --budget 2", 0, "clustering 3\nc 0 1 3 4\nc 1 2\nc 4\n", ""),
    ("exact t.ccg --budget 0", 1, "", "splitclust: no clustering within the budget\n"),
    (
        "exact --json t.ccg --budget 0", 1,
        '{"command": "exact", "input": "t.ccg", "result": null}\n',
        "",
    ),
    (
        "exact m.ccg --node-limit 1", 3, "",
        "splitclust: search aborted after 2 nodes at cost level 2\n",
    ),
    (
        "exact --json m.ccg --node-limit 1", 3, "",
        "splitclust: search aborted after 2 nodes at cost level 2\n",
    ),
    ("exact inc.ccg", 0, "clustering 2\nc 0 1\nc 2\n", ""),
    (
        "exact --json inc.ccg --budget 0", 0,
        '{"command": "exact", "input": "inc.ccg", "result": [[0, 1], [2]], "cost": '
        "0}\n",
        "",
    ),
    (
        "exact t.ccg --budget -1", 2, "",
        "splitclust: max_cost must be a non-negative integer, got -1\n",
    ),
    (
        "exact --json missing.ccg", 2, "",
        "splitclust: [Errno 2] No such file or directory: 'missing.ccg'\n",
    ),
    ("approx t.ccg", 0, "clustering 4\nc 0 1 2\nc 0\nc 1\nc 2\n", ""),
    (
        "approx --json t.ccg", 0,
        '{"command": "approx", "input": "t.ccg", "result": [[0, 1, 2], [0], [1], '
        '[2]], "cost": 3}\n',
        "",
    ),
    (
        "approx s.ccg --guess-all", 0,
        "guess 3 cost 4\nclustering 5\nc 0 1 2 3\nc 0 4\nc 0\nc 1\nc 2\n"
        "guess 4 cost 4\nclustering 5\nc 0 1 2 4\nc 0 3\nc 0\nc 1\nc 2\n"
        "guess - cost 5\nclustering 6\nc 0 1 2\nc 0 3\nc 0 4\nc 0\nc 1\nc 2\n",
        "",
    ),
    (
        "approx --json s.ccg --guess-all", 0,
        '{"command": "approx", "input": "s.ccg", "result": [{"guess": [3], "cost": 4, '
        '"clusters": [[0, 1, 2, 3], [0, 4], [0], [1], [2]]}, {"guess": [4], "cost": '
        '4, "clusters": [[0, 1, 2, 4], [0, 3], [0], [1], [2]]}, {"guess": null, '
        '"cost": 5, "clusters": [[0, 1, 2], [0, 3], [0, 4], [0], [1], [2]]}]}\n',
        "",
    ),
    # the empty graph has the empty clustering at cost 0
    ("approx empty.ccg", 0, "clustering 0\n", ""),
    (
        "approx --json empty.ccg", 0,
        '{"command": "approx", "input": "empty.ccg", "result": [], "cost": 0}\n',
        "",
    ),
    (
        "approx inc.ccg", 2, "",
        "splitclust: approximation is defined on complete graphs\n",
    ),
    (
        "approx --json inc.ccg --guess-all", 2, "",
        "splitclust: approximation is defined on complete graphs\n",
    ),
    (
        "kernel m.ccg --budget 2", 0,
        "ccg 7 complete\ne 0 1 b\ne 1 2 b\ne 1 3 b\ne 1 4 b\ne 1 5 b\ne 1 6 b\n"
        "e 3 4 b\ne 3 5 b\ne 3 6 b\ne 4 5 b\ne 4 6 b\ne 5 6 b\n",
        "",
    ),
    (
        "kernel --json m.ccg --budget 2 --transcript out.ktx", 0,
        '{"command": "kernel", "input": "m.ccg", "result": {"kind": "kernel", "n": '
        "7}}\n",
        "",
    ),
    ("kernel t.ccg --budget 0", 1, "no-instance weight 1\n", ""),
    (
        "kernel --json t.ccg --budget 0", 1,
        '{"command": "kernel", "input": "t.ccg", "result": {"kind": "no-instance", '
        '"weight": 1}}\n',
        "",
    ),
    (
        "kernel inc.ccg --budget 1", 2, "",
        "splitclust: kernelization is defined on complete graphs\n",
    ),
    (
        "kernel --json t.ccg --budget -1", 2, "",
        "splitclust: budget must be a non-negative integer, got -1\n",
    ),
    (
        "kernel t.ccg", 2, "",
        "splitclust: the following arguments are required: --budget\n",
    ),
    (
        "lift k.clu --transcript m.ktx", 0,
        "clustering 2\nc 0 1 2\nc 1 3 4 5 6 7 8 9\n",
        "",
    ),
    (
        "lift --json k.clu --transcript m.ktx", 0,
        '{"command": "lift", "input": ["k.clu", "m.ktx"], "result": [[0, 1, 2], [1, '
        '3, 4, 5, 6, 7, 8, 9]], "cost": 1}\n',
        "",
    ),
    (
        "lift - --transcript m.ktx <k.clu", 0,
        "clustering 2\nc 0 1 2\nc 1 3 4 5 6 7 8 9\n",
        "",
    ),
    (
        "lift kbad.clu --transcript m.ktx", 1, "",
        "splitclust: no cluster contains a marked clique part; the solution does not "
        "respect the kernel structure\n",
    ),
    (
        "lift --json kbad.clu --transcript m.ktx", 1, "",
        "splitclust: no cluster contains a marked clique part; the solution does not "
        "respect the kernel structure\n",
    ),
    (
        "lift r1.clu --transcript g1.ktx", 1, "",
        "splitclust: kernel vertex 2 is in no cluster\n",
    ),
    (
        "lift --json r1.clu --transcript g1.ktx", 1, "",
        "splitclust: kernel vertex 2 is in no cluster\n",
    ),
    (
        "lift k.clu --transcript bad.ktx", 2, "",
        "splitclust: line 1: expected 'S <ids...>'\n",
    ),
    (
        "lift --json bad.clu --transcript m.ktx", 2, "",
        "splitclust: line 1: expected integer cluster count\n",
    ),
    (
        "lift k.clu", 2, "",
        "splitclust: the following arguments are required: --transcript\n",
    ),
    ("verify t.ccg ok.clu", 0, "", ""),
    (
        "verify --json t.ccg ok.clu", 0,
        '{"command": "verify", "input": ["t.ccg", "ok.clu"], "result": '
        '{"uncovered_vertices": [], "uncovered_blue": [], "unresolved_red": []}, '
        '"valid": true}\n',
        "",
    ),
    ("verify t.ccg one.clu", 1, "invalid\nunresolved-red 0 2\n", ""),
    (
        "verify --json t.ccg one.clu", 1,
        '{"command": "verify", "input": ["t.ccg", "one.clu"], "result": '
        '{"uncovered_vertices": [], "uncovered_blue": [], "unresolved_red": [[0, '
        '2]]}, "valid": false}\n',
        "",
    ),
    (
        "verify s.ccg ok.clu", 1,
        "invalid\nuncovered-vertex 3\nuncovered-vertex 4\nuncovered-blue 0 3\n"
        "uncovered-blue 0 4\nunresolved-red 1 3\nunresolved-red 1 4\n"
        "unresolved-red 2 3\nunresolved-red 2 4\nunresolved-red 3 4\n",
        "",
    ),
    (
        "verify --json s.ccg ok.clu", 1,
        '{"command": "verify", "input": ["s.ccg", "ok.clu"], "result": '
        '{"uncovered_vertices": [3, 4], "uncovered_blue": [[0, 3], [0, 4]], '
        '"unresolved_red": [[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]}, "valid": '
        "false}\n",
        "",
    ),
    (
        "verify t.ccg bad.clu", 2, "",
        "splitclust: line 1: expected integer cluster count\n",
    ),
    (
        "verify --json t.ccg missing.clu", 2, "",
        "splitclust: [Errno 2] No such file or directory: 'missing.clu'\n",
    ),
    (
        "verify t.ccg", 2, "",
        "splitclust: the following arguments are required: clustering\n",
    ),
    (
        "reduce ccvs-to-mcvs t.ccg --budget 1", 0,
        "mcvs 3 2 1 1\ne 0 1\ne 1 2\nt 0 2\n",
        "",
    ),
    (
        "reduce --json ccvs-to-mcvs t.ccg --budget 1", 0,
        '{"command": "reduce", "input": "t.ccg", "result": "mcvs 3 2 1 1\\ne 0 1\\ne '
        '1 2\\nt 0 2\\n"}\n',
        "",
    ),
    ("reduce ccvs-to-mcvs inc.ccg", 0, "mcvs 3 1 1 0\ne 0 1\nt 1 2\n", ""),
    (
        "reduce mcvs-to-ccvs t.mcvs", 0,
        "# budget 1\nccg 3 incomplete\ne 0 1 b\ne 0 2 r\ne 1 2 b\n",
        "",
    ),
    (
        "reduce --json mcvs-to-ccvs t.mcvs", 0,
        '{"command": "reduce", "input": "t.mcvs", "result": "# budget 1\\nccg 3 '
        'incomplete\\ne 0 1 b\\ne 0 2 r\\ne 1 2 b\\n", "bound": 1}\n',
        "",
    ),
    (
        "reduce mcvs-to-ccvs - <t.mcvs", 0,
        "# budget 1\nccg 3 incomplete\ne 0 1 b\ne 0 2 r\ne 1 2 b\n",
        "",
    ),
    ("reduce clu-to-mcsol t.ccg ok.clu", 0, "mcsol 3\ns 1 : 0 | 2\n", ""),
    (
        "reduce --json clu-to-mcsol t.ccg ok.clu", 0,
        '{"command": "reduce", "input": ["t.ccg", "ok.clu"], "result": "mcsol 3\\ns 1 '
        ': 0 | 2\\n", "cost": 1}\n',
        "",
    ),
    (
        "reduce clu-to-mcsol t.ccg one.clu", 1, "",
        "splitclust: clustering is not valid for the graph: unresolved-red 0 2\n",
    ),
    (
        "reduce --json clu-to-mcsol t.ccg one.clu", 1, "",
        "splitclust: clustering is not valid for the graph: unresolved-red 0 2\n",
    ),
    (
        "reduce clu-to-mcsol t.ccg far.clu", 2, "",
        "splitclust: cluster vertex must be a non-negative integer below 3, got 3\n",
    ),
    ("reduce mcsol-to-clu t.mcvs t.mcsol", 0, "clustering 2\nc 0 1\nc 1 2\n", ""),
    (
        "reduce --json mcsol-to-clu t.mcvs t.mcsol", 0,
        '{"command": "reduce", "input": ["t.mcvs", "t.mcsol"], "result": "clustering '
        '2\\nc 0 1\\nc 1 2\\n", "cost": 1}\n',
        "",
    ),
    (
        "reduce mcsol-to-clu t.mcvs four.mcsol", 2, "",
        "splitclust: solution is for 4 vertices, instance has 3\n",
    ),
    (
        "reduce --json mcsol-to-clu t.mcvs part.mcsol", 2, "",
        "splitclust: line 2: a split needs at least two parts\n",
    ),
    (
        "reduce ccvs-to-mcvs t.ccg t.ccg", 2, "",
        "splitclust: ccvs-to-mcvs takes 1 input document(s), got 2\n",
    ),
    (
        "reduce --json clu-to-mcsol t.ccg", 2, "",
        "splitclust: clu-to-mcsol takes 2 input document(s), got 1\n",
    ),
    (
        "reduce ccvs-to-mcvs big.ccg", 2, "",
        "splitclust: complete graph has 4999950000 red pairs; ccvs_to_mcvs lists at "
        "most 1000000 terminal pairs\n",
    ),
    (
        "reduce mcvs-to-ccvs bad.mcvs", 2, "",
        "splitclust: line 1: expected 'mcvs <n> <m> <t> <k>'\n",
    ),
    (
        "gen random --n 4 --p-blue 0.5 --p-red 0.5 --complete --seed 3", 0,
        "ccg 4 complete\ne 0 1 b\ne 1 2 b\ne 1 3 b\n",
        "",
    ),
    (
        "gen random --json --n 4 --p-blue 0.5 --p-red 0.3 --incomplete", 0,
        '{"command": "gen", "input": null, "result": "ccg 4 incomplete\\ne 0 2 b\\ne '
        '0 3 b\\ne 1 3 b\\ne 2 3 b\\n"}\n',
        "",
    ),
    (
        "gen random --n -1 --p-blue 0.5 --p-red 0.5 --complete", 2, "",
        "splitclust: vertex count must be a non-negative integer, got -1\n",
    ),
    (
        "gen random --n 3 --p-blue 0.5 --p-red 0.5", 2, "",
        "splitclust: one of the arguments --complete --incomplete is required\n",
    ),
    (
        "gen vc-gadget --n 3 --edges 0-1,1-2 --budget 1", 0,
        "ccg 5 complete\ne 0 2 b\ne 0 3 b\ne 0 4 b\ne 1 3 b\ne 1 4 b\ne 2 3 b\n"
        "e 2 4 b\ne 3 4 b\n",
        "",
    ),
    (
        "gen vc-gadget --json --n 2 --budget 1", 0,
        '{"command": "gen", "input": null, "result": "ccg 4 complete\\ne 0 1 b\\ne 0 '
        '2 b\\ne 0 3 b\\ne 1 2 b\\ne 1 3 b\\ne 2 3 b\\n"}\n',
        "",
    ),
    (
        "gen vc-gadget --n 3 --edges xy --budget 1", 2, "",
        "splitclust: edge 'xy' must look like 0-1\n",
    ),
    (
        "gen vc-gadget --json --n 3 --edges 0-5 --budget 1", 2, "",
        "splitclust: vertex of pair (0,5) must be a non-negative integer below 3, got 5\n",
    ),
    (
        "gen coloring-gadget --n 3 --edges 0-1,0-2,1-2 --colors 3", 0,
        "mcvs 4 3 3 2\ne 0 3\ne 1 3\ne 2 3\nt 0 1\nt 0 2\nt 1 2\n",
        "",
    ),
    (
        "gen coloring-gadget --json --n 2 --edges 0-1 --colors 3", 0,
        '{"command": "gen", "input": null, "result": "mcvs 3 2 1 2\\ne 0 2\\ne 1 '
        '2\\nt 0 1\\n"}\n',
        "",
    ),
    (
        "gen coloring-gadget --n 2 --edges 0-1 --colors 2", 2, "",
        "splitclust: coloring gadget needs at least three colors\n",
    ),
    (
        "gen coloring-gadget --n 2 --edges 0-+1 --colors 3", 2, "",
        "splitclust: edge '0-+1' must join two integers\n",
    ),
    ("gen", 2, "", "splitclust: the following arguments are required: generator\n"),
    (
        "gen --json random", 2, "",
        "splitclust: the following arguments are required: --n, --p-blue, --p-red\n",
    ),
    ("", 2, "", "splitclust: the following arguments are required: command\n"),
    ("lb --bogus t.ccg", 2, "", "splitclust: unrecognized arguments: --bogus\n"),
]


@pytest.mark.parametrize(
    "line, code, out, err", GOLDEN, ids=[case[0] or "no-args" for case in GOLDEN]
)
def test_golden_output(tmp_path, monkeypatch, line, code, out, err):
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    line, _, redirect = line.partition(" <")
    stdin_text = GOLDEN_FILES[redirect] if redirect else ""
    assert invoke(line.split(), stdin_text) == (code, out, err)
