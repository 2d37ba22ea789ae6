"""R5 config–CLI–docs sync: switch fields stay visible on every surface."""

from __future__ import annotations

from lint_fixtures import CLEAN_TREE, clean_root, lint, messages, write_tree  # noqa: F401


def test_clean_tree_in_sync(clean_root) -> None:
    assert messages(lint(clean_root, select=["R5"])) == []


def test_missing_cli_flag_fails(tmp_path) -> None:
    cli = CLEAN_TREE["src/repro/cli.py"].replace(
        '    parser.add_argument("--eval-path")\n', ""
    )
    root = write_tree(tmp_path, {**CLEAN_TREE, "src/repro/cli.py": cli})
    found = messages(lint(root, select=["R5"]))
    assert any("'--eval-path'" in m for m in found)
    assert not any("'--engine'" in m for m in found)


def test_missing_readme_row_fails(tmp_path) -> None:
    readme = "\n".join(
        line
        for line in CLEAN_TREE["README.md"].splitlines()
        if "`eval_path`" not in line
    )
    root = write_tree(tmp_path, {**CLEAN_TREE, "README.md": readme})
    found = messages(lint(root, select=["R5"]))
    assert any("'eval_path'" in m and "README" in m for m in found)


def test_missing_experiment_mirror_fails(tmp_path) -> None:
    experiment = CLEAN_TREE["src/repro/experiments/config.py"].replace(
        '    eval_path: str = "block"\n', ""
    )
    root = write_tree(
        tmp_path, {**CLEAN_TREE, "src/repro/experiments/config.py": experiment}
    )
    found = messages(lint(root, select=["R5"]))
    assert any("'eval_path'" in m and "mirror" in m for m in found)


def test_workers_switch_checked(tmp_path) -> None:
    # workers has no literal-realization tuple but is user-facing; it is
    # pulled in through EXTRA_SWITCH_FIELDS, and dropping any of its three
    # surfaces must fail.
    cli = CLEAN_TREE["src/repro/cli.py"].replace(
        '    parser.add_argument("--workers")\n', ""
    )
    root = write_tree(tmp_path, {**CLEAN_TREE, "src/repro/cli.py": cli})
    found = messages(lint(root, select=["R5"]))
    assert any("'--workers'" in m for m in found)

    readme = "\n".join(
        line
        for line in CLEAN_TREE["README.md"].splitlines()
        if "`workers`" not in line
    )
    root = write_tree(tmp_path / "readme", {**CLEAN_TREE, "README.md": readme})
    found = messages(lint(root, select=["R5"]))
    assert any("'workers'" in m and "README" in m for m in found)

    experiment = CLEAN_TREE["src/repro/experiments/config.py"].replace(
        "    workers: int = 1\n", ""
    )
    root = write_tree(
        tmp_path / "mirror", {**CLEAN_TREE, "src/repro/experiments/config.py": experiment}
    )
    found = messages(lint(root, select=["R5"]))
    assert any("'workers'" in m and "mirror" in m for m in found)


def test_readme_token_matching_is_exact(tmp_path) -> None:
    # An ``eval_engine`` row must not satisfy the ``engine`` requirement.
    readme = CLEAN_TREE["README.md"].replace("| `engine` |", "| `eval_engine` |")
    root = write_tree(tmp_path, {**CLEAN_TREE, "README.md": readme})
    found = messages(lint(root, select=["R5"]))
    assert any("'engine'" in m and "README" in m for m in found)


def test_missing_anchor_files_reported(tmp_path) -> None:
    files = {
        k: v
        for k, v in CLEAN_TREE.items()
        if k not in ("src/repro/cli.py", "README.md")
    }
    root = write_tree(tmp_path, files)
    found = messages(lint(root, select=["R5"]))
    assert any("cannot verify" in m and "cli.py" in m for m in found)
    assert any("cannot verify" in m and "README" in m for m in found)
