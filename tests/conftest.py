import pytest

_results: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(num, desc): numbered acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num, desc = marker.kwargs["num"], marker.kwargs["desc"]
    if rep.when == "call":
        _results[num] = ("PASS" if rep.passed else "FAIL", desc)
    elif rep.when == "setup" and not rep.passed:
        _results[num] = ("FAIL", desc)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        word, desc = _results[num]
        terminalreporter.write_line(f"criterion {num:2d} {word} - {desc}")


@pytest.fixture
def branch_compose(monkeypatch):
    """Let the CLI and the solvers compose only trees of at most 7 nodes.

    That is one ``AND(OR(a, b), CM)`` branch. A larger tree under the
    composed model's root fails the test before its chain is built. Returns
    the node counts of the composed trees.
    """
    import actkit.cli
    import actkit.transient
    from actkit.semantics import compose

    sizes = []

    def spy(act, *args, **kwargs):
        size = len(act.postorder())
        assert size <= 7, f"compose called on a {size}-node tree"
        sizes.append(size)
        return compose(act, *args, **kwargs)

    for module in (actkit.cli, actkit.transient):
        monkeypatch.setattr(module, "compose", spy)
    return sizes
