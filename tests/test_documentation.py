"""Documentation contract: every public item carries a docstring.

The deliverable is a library other people adopt; this meta-test walks the
installed package and fails on any public module, class, function, or
method missing documentation, and on any ``repro.…`` cross-reference
role in a module's source that names nothing importable.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro
from tests.test_docs import resolves


def iter_public_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        leaf = info.name.rsplit(".", 1)[-1]
        if leaf.startswith("_"):
            continue
        yield importlib.import_module(info.name)


ALL_MODULES = list(iter_public_modules())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), (
        f"module {module.__name__} has no docstring"
    )


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_members_documented(module):
    undocumented = []
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-export; documented at its definition site
        if not (member.__doc__ and member.__doc__.strip()):
            undocumented.append(name)
        if inspect.isclass(member):
            for method_name, method in vars(member).items():
                if method_name.startswith("_"):
                    continue  # __init__ params documented in the class doc
                if not inspect.isfunction(method):
                    continue
                if method.__doc__ and method.__doc__.strip():
                    continue
                # Overrides inherit documentation from the defining base.
                inherited = any(
                    getattr(getattr(base, method_name, None), "__doc__", None)
                    for base in member.__mro__[1:]
                )
                if not inherited:
                    undocumented.append(f"{name}.{method_name}")
    assert not undocumented, (
        f"undocumented public items in {module.__name__}: {undocumented}"
    )


#: The ``repro.`` target of a cross-reference role, bare, shortened
#: (``~``) or titled: :class:`~repro.obs.events.Event`,
#: :meth:`replay <repro.serve.gateway.Gateway.replay>`.
_ROLE_TARGET = re.compile(
    r":(?:class|func|meth|mod|data|attr|exc):`(?:[^`<]*<)?~?"
    r"(repro(?:\.[A-Za-z_]\w*)+)>?`"
)


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_role_targets_resolve(module):
    source = pathlib.Path(module.__file__).read_text()
    broken = sorted(
        {path for path in _ROLE_TARGET.findall(source) if not resolves(path)}
    )
    assert not broken, (
        f"{module.__name__} cross-references paths that do not resolve: "
        f"{broken}"
    )


#: The serving-layer API surface this repo's docs explicitly promise:
#: every symbol here must exist and carry real documentation (the generic
#: walk above covers them too, but these are load-bearing enough to name).
PROMISED_API = [
    ("repro.engine", "MarketplaceEngine"),
    ("repro.engine", "CampaignPlanner"),
    ("repro.engine", "PolicyCache"),
    ("repro.engine", "generate_workload"),
    ("repro.core.batch", "solve_deadline_batch"),
    ("repro.core.batch", "solve_budget_batch"),
    ("repro.core.batch", "BatchPolicySolver"),
    ("repro.core.batch", "BudgetRequest"),
]

PROMISED_METHODS = [
    ("repro.core.deadline.model", "DeadlineProblem", "signature"),
    ("repro.market.acceptance", "AcceptanceModel", "signature"),
    ("repro.engine.cache", "PolicyCache", "get_or_solve_many"),
    ("repro.engine.routing", "ArrivalRouter", "fractions"),
]


@pytest.mark.parametrize("module_name,symbol", PROMISED_API)
def test_promised_symbol_documented(module_name, symbol):
    member = getattr(importlib.import_module(module_name), symbol)
    assert member.__doc__ and len(member.__doc__.strip()) > 20


@pytest.mark.parametrize("module_name,cls,method", PROMISED_METHODS)
def test_promised_method_documented(module_name, cls, method):
    owner = getattr(importlib.import_module(module_name), cls)
    member = getattr(owner, method)
    assert member.__doc__ and len(member.__doc__.strip()) > 20


def test_budget_signature_documented():
    from repro.core.budget.static_lp import budget_signature

    assert budget_signature.__doc__ and "signature" in budget_signature.__doc__
