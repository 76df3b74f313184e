import importlib
import inspect

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
