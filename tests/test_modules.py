import importlib
import inspect

import pytest

MODULES = ("cli", "matchings", "exterior", "functors", "arc_rings", "centers",
           "springer", "associator", "zlinalg")


def test_public_functions_come_from_the_nine_modules():
    # perfbench's tracer sums self time over exactly these modules, so a
    # public function from a tenth one raises KeyError in every traced run
    for short in MODULES:
        module = importlib.import_module(f"arcring.{short}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or inspect.isclass(obj) \
                    or not callable(obj):
                continue
            home = getattr(obj, "__module__", None) or ""
            if home.startswith("arcring."):
                assert home.split(".", 1)[1] in MODULES, \
                    f"arcring.{short}.{attr} is defined in {home}"


def test_resolve_monomials_contract(monkeypatch):
    # perfbench's tracer replaces arc_rings._resolve_monomials by name and
    # counts one resolution per distinct monomial pair of a product
    from arcring import arc_rings as ar
    params = inspect.signature(ar._resolve_monomials).parameters
    assert list(params) == ["rule", "c", "b", "a", "colored_x", "colored_y",
                            "theory"]
    calls = []
    real = ar._resolve_monomials

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ar, "_resolve_monomials", counting)
    basis = [mono for mono, _ in ar.ring_basis(2)]
    x = ar.RingElement(2, {mono: 1 for mono in basis[:6]})
    y = ar.RingElement(2, {mono: 2 for mono in basis[4:]})
    pairs = sum(mx.bottom == my.top for mx in x.terms for my in y.terms)
    for theory in ("odd", "even"):
        calls.clear()
        ar.multiply(ar.BUILTIN_RULES["default"], x, y, theory)
        assert len(calls) == pairs
        assert len({args[1:6] for args in calls}) == pairs
    # it runs the plan's ops itself, and still refuses a theory that
    # multiply would have refused first
    c, b, a = (ar._m.MATCHINGS[w] for w in ("(())", "()()", "(())"))
    with pytest.raises(ValueError, match="unknown theory"):
        real(ar.BUILTIN_RULES["default"], c, b, a, 0, 0, "mixed")
