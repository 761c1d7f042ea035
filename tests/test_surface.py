"""One runtime surface: every public function, class and method in
`src/stlog` is reached from the program (a Name or an Attribute outside
its own definition; a string does not count), is a span the benchmark
traces, or is a reference the tests compare the program against or read
results through.  A feature that only its own tests call fails here."""

import ast
from pathlib import Path

import stlog
from test_bench_hooks import load_tracing

# kept in src/stlog for the tests only, each with its reason
TEST_REFERENCES = {
    "normal_form": "membership in a submodule, by a Groebner basis",
    "in_row_span": "membership by linear algebra, against the engine",
    "FreeModule.element": "builds module elements from component lists",
    "BettiTable.beta": "reads one graded Betti number",
    "RationalSeries.taylor_coefficients": "expands a series to compare it",
    "LaurentPolynomial.evaluate": "evaluates chi and ST at a point",
    "_ArgumentParser.error": "argparse calls it on a malformed command line",
}


def test_every_public_name_is_reached():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(stlog.__file__).parent.glob("*.py")}
    spans = {(module, path.split(".")[0])
             for module, path in load_tracing().SPANS}
    # (name, the top-level statement it is spelled in)
    uses = {(node.id if isinstance(node, ast.Name) else node.attr, id(stmt))
            for tree in trees.values() for stmt in tree.body
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))}
    public = [(module, node) for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    methods = {f"{cls.name}.{node.name}" for tree in trees.values()
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")}
    assert set(TEST_REFERENCES) <= {n.name for _, n in public} | methods
    unreached = sorted(
        f"{module}.{node.name}" for module, node in public
        if not any(name == node.name and where != id(node)
                   for name, where in uses)
        and (module, node.name) not in spans
        and node.name not in TEST_REFERENCES)
    attributes = {node.attr for tree in trees.values()
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unreached += sorted(name for name in methods - set(TEST_REFERENCES)
                        if name.split(".")[1] not in attributes)
    assert unreached == []
