import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "operlab"


def isinstance_on_event(source):
    """(line, function) of each `isinstance(<event>, ...)` call in an
    `on_event` or `step`, where <event> is the argument after `self`."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef)
                and fn.name in ("on_event", "step") and len(fn.args.args) > 1):
            continue
        event = fn.args.args[1].arg
        found += [(call.lineno, fn.name) for call in ast.walk(fn)
                  if isinstance(call, ast.Call)
                  and isinstance(call.func, ast.Name)
                  and call.func.id == "isinstance" and call.args
                  and isinstance(call.args[0], ast.Name)
                  and call.args[0].id == event]
    return found


def test_reports_each_isinstance_on_the_event_argument():
    source = (
        "class A:\n"
        "    def on_event(self, ev):\n"
        "        if isinstance(ev, Request):\n"
        "            return [a for a in ev.args if isinstance(a, int)]\n"
        "        return type(ev) is MessageArrival\n"
        "    def step(self, event):\n"
        "        return isinstance(event, TimerFired)\n"
        "    def other(self, event):\n"
        "        return isinstance(event, TimerFired)\n")
    assert isinstance_on_event(source) == [(3, "on_event"), (7, "step")]


def test_handlers_dispatch_on_the_exact_event_class():
    # events are never subclassed: a handler reads `type(event)` once and
    # compares it with `is`, where isinstance would cost a call per branch
    files = sorted(_SRC.glob("*.py"))
    assert files
    found = [f"{f.name}:{line}: {name}" for f in files
             for line, name in isinstance_on_event(f.read_text())]
    assert found == []
