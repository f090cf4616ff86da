"""Every public function, class, method and module-level ALL_CAPS constant of
the package is used by the package itself, or is named below with the reason
it stays."""

import ast
import os
from collections import Counter

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "semilab")

# public names no package code uses, each with the reason it stays
ALLOWED = {
    "pinterval.closed_form_exponent_b2a": "test oracle: the b = 2a growth exponent",
    "pinterval.psd_check_Egamma": "test oracle: the PSD form behind gamma_p (criterion 03)",
    "evolution.adjoint_duality_check": "test oracle: adjoint stepping (criterion 10)",
    "discrete.truncate_unit": "test oracle: the truncation gradient formula (criterion 10)",
    "evolution.pnorm": "test oracle: the p-norm of a state, against the probe's norms",
    "discrete.omega0": "test oracle: against the Dirichlet eigenvalue (criterion 04)",
    "discrete.assemble_adjoint": "test oracle: the exact transpose (criterion 10)",
    "pinterval.tau_constants": "the twisted-form shift, for a kernel check to measure",
    "coefficients.BoxDomain.refine": "for a two-sided check of the closed forms",
}


def unused_names(trees: dict) -> list:
    """Public top-level functions and classes, public methods of top-level
    classes, and module-level ALL_CAPS constants of ``trees`` (module ->
    parsed source) whose name no code outside their own definition reads or
    takes as an attribute."""
    def refs(tree):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                       if isinstance(n, (ast.Name, ast.Attribute)))
    everywhere = sum(map(refs, trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        defs = [(node.name, node.name, node) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [(f"{cls.name}.{node.name}", node.name, node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, ast.FunctionDef)]
        defs += [(target.id, target.id, node) for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(target, ast.Name) and target.id.isupper()]
        unused += [f"{module}.{name}" for name, bare, node in defs
                   if not bare.startswith("_") and everywhere[bare] == refs(node)[bare]]
    return sorted(unused)


def test_every_public_name_is_used_or_allowed():
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read(), filename=name)
    # an entry whose name is deleted, or that the package comes to use, goes
    assert unused_names(trees) == sorted(ALLOWED)


def test_detector_sees_unused_names():
    src = ("def f():\n    return f()\n\ndef g():\n    return f()\n\ndef _h():\n    pass\n\n"
           "class C:\n    def go(self):\n        pass\n\n    def stop(self):\n        pass\n\n"
           "C().go()\n")
    assert unused_names({"m": ast.parse(src)}) == ["m.C.stop", "m.g"]


def test_detector_sees_unused_constants():
    src = ("LIMIT = 3\nSTEP: int = 1\nUNUSED = LIMIT + 1\n"
           "_HIDDEN = 2\nlower = 5\n\ndef f():\n    return STEP\n")
    assert unused_names({"m": ast.parse(src)}) == ["m.UNUSED", "m.f"]
