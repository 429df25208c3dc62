import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root, files):
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


TREE = {"manifest.json": b'{"a": 1}\n', "snapshots/candidates-2022-03-01": b"x\n",
        "snapshots/index.json": b"{}\n", "z.csv": b"h\n1\n"}


def test_identical_trees_give_0(tmp_path, capsys):
    same_outputs = load_script()
    a, b = write_tree(tmp_path / "a", TREE), write_tree(tmp_path / "b", TREE)
    assert same_outputs.compare_trees(a, b, "study seed 1") == 0
    assert capsys.readouterr().out == "study seed 1: same\n"


def test_trees_one_byte_apart_give_1_and_name_the_file(tmp_path, capsys):
    same_outputs = load_script()
    changed = dict(TREE, **{"snapshots/index.json": b"{]\n"})
    a, b = write_tree(tmp_path / "a", TREE), write_tree(tmp_path / "b", changed)
    assert same_outputs.compare_trees(a, b, "study seed 1") == 1
    assert capsys.readouterr().out == "study seed 1: differs: snapshots/index.json\n"


def test_a_file_only_one_tree_holds_is_a_difference(tmp_path):
    same_outputs = load_script()
    a = write_tree(tmp_path / "a", TREE)
    b = write_tree(tmp_path / "b", dict(TREE, **{"extra.jsonl": b""}))
    assert same_outputs.first_difference(a, b) == "extra.jsonl"
    assert same_outputs.first_difference(b, a) == "extra.jsonl"
