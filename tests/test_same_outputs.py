import importlib.util
from pathlib import Path

from tirex.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

TINY_CASES = [
    ("simulate then fit", {}, [
        ["simulate", "--model", "A", "--n", "60", "--seed", "3", "--out", "a.csv"],
        ["fit", "--in", "a.csv", "--method", "tirex1", "--k", "10", "--d", "1",
         "--out", "f.json"],
    ]),
    ("fit --in dup.csv", {"dup.csv": same_outputs.DUP_CSV}, [
        ["fit", "--in", "dup.csv", "--method", "pca", "--d", "1", "--out", "o.json"],
    ]),
]


def test_a_tree_against_itself_gives_the_same_bytes():
    src = ROOT / "src"
    assert [(name, diffs) for name, diffs in same_outputs.compare(src, src, TINY_CASES)] == [
        ("simulate then fit", []), ("fit --in dup.csv", [])]
    files, steps = same_outputs.run_case(src, TINY_CASES[0])
    assert sorted(files) == ["a.csv", "a.json", "f.json"]
    assert [code for code, _, _ in steps] == [0, 0]
    files, steps = same_outputs.run_case(src, TINY_CASES[1])
    assert sorted(files) == ["dup.csv"]
    assert steps[0][0] == 1 and b"appears 2 times in the header" in steps[0][2]


def test_every_kind_of_difference_is_reported():
    a = ({"same.csv": b"1\n", "out.csv": b"k\n1\n2\n", "gone.json": b"{}"},
         [(0, b"ok\n", b""), (0, b"", b"")])
    b = ({"same.csv": b"1\n", "out.csv": b"k\n1\n3\n", "new.json": b"{}"},
         [(0, b"ok\n", b"warn\n"), (1, b"", b"")])
    assert same_outputs.differences(a, b) == [
        "gone.json: only under A",
        "new.json: only under B",
        "out.csv: line 3: b'2' vs b'3'; largest relative difference 0.333",
        "step 1 stderr: 0 vs 1 lines",
        "step 2 exit code: 0 vs 1",
    ]
    assert same_outputs.differences(a, a) == []


def test_the_case_list_holds_the_benchmark_workloads_at_two_seeds():
    steps = {name: steps for name, _, steps in same_outputs.all_cases()}
    assert len(steps) == 4 * 2 + 2 + 6 + 6 + 3 + 1 + 1 and "fit --in dup.csv" in steps
    assert [steps[f"sweep --jobs {jobs}"][0][-2:] for jobs in ("2", "64")] == [
        ["--jobs", "2"], ["--jobs", "64"]]
    fit_b = steps["fit-B-csv seed 2"]
    assert [step[0] for step in fit_b] == ["simulate", "fit"] and "2" in fit_b[0]


def test_every_step_of_every_case_parses():
    # a step that is a usage error compares two error messages, not outputs
    for _, _, steps in same_outputs.all_cases():
        for step in steps:
            parser, _ = build_parser(step[0])
            assert parser.parse_args(step).handler


def test_the_largest_relative_difference_reads_numbers_at_the_same_place():
    move = same_outputs.largest_relative_difference
    assert move("a.csv", b"k,v\n1,2.0\n-4,x\n", b"k,v\n1,2.5\n-4,y\n") == 0.2
    assert move("a.csv", b"k\n1\n", b"k\n1\n2\n") == 0.0  # extra lines pair with nothing
    assert move("a.json", b'{"e": [1.0, 4.0], "m": "tirex2", "b": true}',
                b'{"e": [1.0, 5.0], "m": "tirex1", "b": false, "new": 9}') == 0.2
    assert move("a.json", b'{"v": NaN, "w": 1}', b'{"v": NaN, "w": Infinity}') == float("inf")
    assert move("a.json", b"{", b"{}") is None
    assert move("a.txt", b"1\n", b"2\n") is None
    assert move("a.csv", b"x\n", b"y\n") is None
