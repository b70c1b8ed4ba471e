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
def chain_calls(monkeypatch):
    """Record every chain the library builds or solves and every model it rebuilds.

    Wraps ``compose``, ``transient_probability`` and ``remove_cm_gates``
    wherever an ``actkit`` module binds them. Returns the called names in
    call order.
    """
    import sys

    import actkit.model
    import actkit.semantics
    import actkit.transient

    calls = []
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "actkit"]
    for owner, name in ((actkit.semantics, "compose"), (actkit.transient, "transient_probability"),
                        (actkit.model, "remove_cm_gates")):
        original = getattr(owner, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    return calls
