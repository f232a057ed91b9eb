import ast
import copy
import dataclasses
import importlib
import json
import pickle
import pkgutil
import random
import re
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cndkit.serialize  # noqa: F401  (loads the module; cndkit.serialize is the function)
from cndkit.analyzer import (
    activation_sizes,
    analyze,
    count_params,
    count_params_layer,
    flops_estimate,
    memory_estimate,
)
from cndkit.errors import (
    ECHO_LIMIT,
    ArityError,
    DuplicateIdError,
    MeasurementRangeError,
    NonPositiveDimError,
    ParseError,
    ShapeMismatchError,
    UnknownInputError,
    ValidationError,
)
from cndkit.graph import (
    KIND_CLASSES,
    KINDS,
    MAX_SIZE,
    Activation,
    Add,
    BatchNorm,
    Conv2D,
    Dense,
    GlobalAvgPool,
    Input,
    LayerKind,
    LayerNode,
    LayerParams,
    MaxPool,
    ModelGraph,
    SeparableConv2D,
    TensorShape,
    group_modules,
    infer_shapes,
    is_conv,
    topo_sort,
    validate,
)
from cndkit.pareto import FIXTURE_NAMES, ModelMeasurement, load_fixture
from cndkit.serialize import deserialize, serialize
from cndkit.transforms import (
    FireModuleSpec,
    NodeChange,
    strategy1_replace_kernels,
    strategy2_insert_fire,
    strategy3_audit,
)
from cndkit.zoo import build_mobilenet_v2, build_optimized_xception, build_xception
from graphgen import (
    ORACLE_KIND_ATTRS,
    VERDICT_RULES,
    oracle_attr_error,
    oracle_node_error,
    oracle_split_tag,
    oracle_topo_sort,
    oracle_verdict,
    random_fire_graph,
    random_graph,
    random_tags,
    random_topological_order,
    random_wiring,
)


def _empty(h=8, w=8, c=3):
    return ModelGraph(name="t", input_shape=TensorShape(h, w, c), num_classes=2)


def _stored(*nodes):
    """A graph holding ``nodes`` as given, unchecked."""
    return dataclasses.replace(_empty(), nodes=nodes)


def _chain(*nodes):
    """``_stored(*nodes)``, checked by ``topo_sort`` to store each node after its inputs."""
    graph = _stored(*nodes)
    topo_sort(graph)
    return graph


def _headed(**fields):
    """in -> global pool -> 2-unit dense, with ``fields`` replaced."""
    graph = _chain(LayerNode("in", Input()), LayerNode("g", GlobalAvgPool(), ("in",)),
                   LayerNode("d", Dense(2), ("g",)))
    return dataclasses.replace(graph, **fields)


class TestTensorShape:
    def test_positive_dims_required(self):
        with pytest.raises(ValidationError):
            TensorShape(0, 4, 4)
        with pytest.raises(ValidationError):
            TensorShape(4, 4, -1)
        with pytest.raises(ValidationError):
            TensorShape(True, 4, 4)
        with pytest.raises(ValidationError):
            TensorShape(4, 4.0, 4)

    def test_elements(self):
        assert TensorShape(299, 299, 3).elements == 268203

    @pytest.mark.parametrize("make, what", [
        (lambda n: TensorShape(4, n, 4), "TensorShape.width"),
        (lambda n: Conv2D(n, 3), "Conv2D filters"),
        (lambda n: SeparableConv2D(n, 1), "SeparableConv2D filters"),
        (lambda n: Dense(n), "Dense units"),
    ], ids=["TensorShape", "Conv2D", "SeparableConv2D", "Dense"])
    def test_sizes_are_at_most_max_size(self, make, what):
        # Counts derived from a larger size could have too many digits to print.
        make(MAX_SIZE)
        with pytest.raises(ValidationError,
                           match=f"^{what} must be at most {MAX_SIZE}, got {MAX_SIZE + 1}$"):
            make(MAX_SIZE + 1)


class TestKindValidation:
    def test_kernel_restricted(self):
        with pytest.raises(ValidationError):
            Conv2D(8, kernel=5)
        with pytest.raises(ValidationError):
            SeparableConv2D(8, kernel=2)

    def test_stride_and_padding(self):
        with pytest.raises(ValidationError):
            Conv2D(8, 3, stride=3)
        with pytest.raises(ValidationError):
            MaxPool(3, 2, padding="full")


def _headed_with(num_classes):
    """``_headed`` whose head is ``num_classes`` wide when that is a usable
    width, so only ``num_classes`` itself can be at fault."""
    units = num_classes if oracle_verdict("Dense units", num_classes) else 2
    graph = _chain(LayerNode("in", Input()), LayerNode("g", GlobalAvgPool(), ("in",)),
                   LayerNode("d", Dense(units), ("g",)))
    return dataclasses.replace(graph, num_classes=num_classes)


# site (as ``VERDICT_RULES`` names it) -> a call that passes it the value
_VERDICT_SITES = {
    **{f"{cls.__name__} {attr}": call for cls in (Conv2D, SeparableConv2D) for attr, call in (
        ("filters", lambda v, cls=cls: cls(v, 1)),
        ("kernel", lambda v, cls=cls: cls(8, v)),
        ("stride", lambda v, cls=cls: cls(8, 3, stride=v)),
        ("padding", lambda v, cls=cls: cls(8, 3, padding=v)),
    )},
    "MaxPool pool_size": lambda v: MaxPool(v),
    "MaxPool stride": lambda v: MaxPool(3, v),
    "MaxPool padding": lambda v: MaxPool(3, 2, v),
    "Activation fn": lambda v: Activation(v),
    "Dense units": lambda v: Dense(v),
    "TensorShape.height": lambda v: TensorShape(v, 1, 1),
    "FireModuleSpec.e3x3": lambda v: FireModuleSpec(1, 1, v),
    "num_classes": lambda v: validate(_headed_with(v)),
    "build_xception num_classes": lambda v: build_xception(num_classes=v),
    "build_mobilenet_v2 num_classes": lambda v: build_mobilenet_v2(num_classes=v),
    "exit_filters[0]": lambda v: build_xception(TensorShape(71, 71, 3), exit_filters=(v, 8, 8, 8)),
    "activation_sizes batch": lambda v: activation_sizes(_headed(), v),
    "batch": lambda v: memory_estimate(_headed(), batch=v),
    "overhead_bytes": lambda v: memory_estimate(_headed(), overhead_bytes=v),
    "input_channels": lambda v: count_params_layer(LayerNode("c", Conv2D(1, 1), ("in",)), v),
    "mode": lambda v: memory_estimate(_headed(), mode=v),
    "optimizer": lambda v: memory_estimate(_headed(), optimizer=v),
}


# the sites whose error names their argument alone
_NAMED_AS = {"build_xception num_classes": "num_classes",
             "build_mobilenet_v2 num_classes": "num_classes", "activation_sizes batch": "batch"}


class _Text(str):
    """A str subclass: equal to its text, but not of the class of a choice."""


_FED_VALUES = (True, False, 1.0, "1", None, [], {}, -1, 0, 1, 2, 3, MAX_SIZE, MAX_SIZE + 1,
               10**5000, "same", "relu", "adam")


def _examples(values):
    """``@example(value)`` for each of ``values``."""
    def apply(test):
        for value in values:
            test = example(value)(test)
        return test
    return apply


class TestCountsAndChoices:
    """Every count goes through ``graph.check_size`` and every fixed set
    through ``graph.check_choice``: each site accepts a value exactly when its
    rule in ``graphgen.VERDICT_RULES`` holds, and otherwise raises a
    ``ValidationError``, never a ``TypeError``."""

    def test_every_site_has_a_rule(self):
        assert set(_VERDICT_SITES) == set(VERDICT_RULES)

    @_examples(_FED_VALUES)
    @given(st.one_of(
        st.sampled_from(_FED_VALUES),
        st.integers(),
        st.sampled_from(("valid", "softmax", "sigmoid", "training", "inference", "sgd_momentum",
                         "Same", "adam ", _Text("same"), _Text("relu"), 3.0, (1,), b"same")),
        st.text(max_size=8),
        st.floats(),
    ))
    @settings(max_examples=150, deadline=None)
    def test_each_site_accepts_exactly_what_its_rule_allows(self, value):
        for site, call in _VERDICT_SITES.items():
            if oracle_verdict(site, value):
                call(value)
            else:
                with pytest.raises(ValidationError):
                    call(value)

    @pytest.mark.parametrize("site", sorted(VERDICT_RULES))
    def test_each_rejection_has_its_rule_s_message(self, site):
        rule = VERDICT_RULES[site]
        name = _NAMED_AS.get(site, site)
        if rule[0] == "size":
            cases = [(None, f"{name} must be an int, got None"),
                     (rule[1] - 1, f"{name} must be >= {rule[1]}, got {rule[1] - 1}")]
            if rule[2] is not None:
                cases.append((rule[2] + 1, f"{name} must be at most {rule[2]}, got {rule[2] + 1}"))
        else:
            cases = [(None, f"{name} must be one of {rule[1]}, got None")]
        for value, message in cases:
            with pytest.raises(ValidationError) as exc:
                _VERDICT_SITES[site](value)
            assert str(exc.value) == message

    def test_range_and_set_messages_are_built_only_in_the_two_helpers(self):
        package = Path(importlib.import_module("cndkit").__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            spans = [(f.lineno, f.end_lineno, f.name) for f in ast.walk(ast.parse(text))
                     if isinstance(f, ast.FunctionDef)]
            for number, line in enumerate(text.splitlines(), start=1):
                for phrase in ("must be one of", "must be >= "):
                    if phrase in line:
                        owners = [name for first, last, name in spans if first <= number <= last]
                        found.append((path.name, owners, phrase))
        assert found == [("graph.py", ["check_size"], "must be >= "),
                         ("graph.py", ["check_choice"], "must be one of")]


class TestAddLayer:
    """Each node of a stored list must follow the nodes before it: a new id,
    known inputs and its kind's arity. ``topo_sort`` checks every one."""

    def test_input_base_case(self):
        assert topo_sort(_stored(LayerNode("in", Input()))) == ["in"]

    def test_duplicate_id(self):
        with pytest.raises(DuplicateIdError, match="^node id 'in' already present$"):
            topo_sort(_stored(LayerNode("in", Input()), LayerNode("in", Conv2D(4, 1), ("in",))))

    def test_unknown_input(self):
        with pytest.raises(UnknownInputError):
            topo_sort(_stored(LayerNode("in", Input()), LayerNode("c", Conv2D(4, 1), ("missing",))))

    def test_add_arity_is_two(self):
        with pytest.raises(ArityError):
            topo_sort(_stored(LayerNode("in", Input()), LayerNode("sum", Add(), ("in",))))

    def test_does_not_mutate_argument(self):
        nodes = (LayerNode("in", Input()), LayerNode("c", Conv2D(4, 1), ("in",)))
        graph, broken = _stored(*nodes), _stored(*nodes, nodes[0])
        topo_sort(graph)
        with pytest.raises(DuplicateIdError):
            topo_sort(broken)
        assert graph.nodes == nodes and broken.nodes == (*nodes, nodes[0])


class TestTopoSort:
    def test_linear_chain(self):
        graph = _chain(
            LayerNode("a", Input()),
            LayerNode("b", Conv2D(4, 1), ("a",)),
            LayerNode("c", Conv2D(4, 1), ("b",)),
        )
        assert topo_sort(graph) == ["a", "b", "c"]

    def test_diamond(self):
        graph = _chain(
            LayerNode("a", Input()),
            LayerNode("b", Conv2D(4, 1), ("a",)),
            LayerNode("c", Conv2D(4, 1), ("a",)),
            LayerNode("d", Add(), ("b", "c")),
        )
        order = topo_sort(graph)
        assert order[0] == "a" and order[-1] == "d"
        assert set(order) == {"a", "b", "c", "d"}

    def test_cycle_detected(self):
        graph = ModelGraph(
            name="cyc",
            input_shape=TensorShape(8, 8, 3),
            num_classes=2,
            nodes=(
                LayerNode("a", Input()),
                LayerNode("b", Conv2D(4, 1), ("c",)),
                LayerNode("c", Conv2D(4, 1), ("b",)),
            ),
        )
        with pytest.raises(UnknownInputError, match="node 'b' references unknown input 'c'"):
            topo_sort(graph)

    def test_respects_edges_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(25):
            graph = random_graph(rng)
            order = topo_sort(graph)
            assert sorted(order) == sorted(n.id for n in graph.nodes)
            position = {nid: i for i, nid in enumerate(order)}
            for node in graph.nodes:
                for src in node.inputs:
                    assert position[src] < position[node.id]


def _descendants(graph, node_id):
    consumers = {n.id: [] for n in graph.nodes}
    for n in graph.nodes:
        for src in n.inputs:
            consumers[src].append(n.id)
    seen, stack = {node_id}, [node_id]
    while stack:
        for nxt in consumers[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


@st.composite
def _stored_graphs(draw, mutation=None):
    """A generated layer graph or DAG, optionally broken: one input pointed
    back at a descendant (a cycle), at an id no node has (dangling), or one
    node renamed to another's id. Its nodes are then stored as generated, in
    a random dependency order, or in any order.

    Returns the graph and the ids the break must leave unplaced."""
    make = draw(st.sampled_from((random_graph, random_wiring)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    graph = make(rng)
    if draw(st.booleans()):
        graph = random_topological_order(graph, rng)
    nodes = list(graph.nodes)
    mutation = mutation or draw(st.sampled_from(("none", "cycle", "dangling", "duplicate")))
    consumers_of = [i for i, n in enumerate(nodes) if n.inputs]
    culprits: set[str] = set()
    if mutation == "cycle" and consumers_of:
        i = draw(st.sampled_from(consumers_of))
        back = draw(st.sampled_from(sorted(_descendants(graph, nodes[i].id))))
        slot = draw(st.integers(0, len(nodes[i].inputs) - 1))
        inputs = list(nodes[i].inputs)
        inputs[slot] = back
        nodes[i] = dataclasses.replace(nodes[i], inputs=tuple(inputs))
        culprits = {nodes[i].id, back}
    elif mutation == "dangling" and consumers_of:
        i = draw(st.sampled_from(consumers_of))
        nodes[i] = dataclasses.replace(nodes[i], inputs=("ghost",) + nodes[i].inputs[1:])
        culprits = {nodes[i].id}
    elif mutation == "duplicate" and len(nodes) > 1:
        i, j = draw(st.lists(st.integers(0, len(nodes) - 1), min_size=2, max_size=2, unique=True))
        nodes[i] = dataclasses.replace(nodes[i], id=nodes[j].id)
    if draw(st.booleans()):
        nodes = draw(st.permutations(nodes))
    return dataclasses.replace(graph, nodes=tuple(nodes)), culprits


def _first_stored_at_fault(graph):
    """Id of the first stored node that repeats an id or names an input not
    stored before it, or None."""
    seen: set[str] = set()
    for node in graph.nodes:
        if node.id in seen or any(src not in seen for src in node.inputs):
            return node.id
        seen.add(node.id)
    return None


class TestTopoSortProperties:
    """topo_sort against the quadratic first-ready-in-stored-order rule."""

    @settings(max_examples=200, deadline=None)
    @given(_stored_graphs())
    def test_matches_quadratic_rule(self, case):
        graph, _culprits = case
        stored = [n.id for n in graph.nodes]
        if oracle_topo_sort(graph) == stored:
            assert topo_sort(graph) == stored
        else:
            with pytest.raises(ValidationError):
                topo_sort(graph)

    @settings(deadline=None)
    @given(st.one_of(_stored_graphs(mutation="cycle"), _stored_graphs(mutation="dangling")))
    def test_break_names_first_stored_node_at_fault(self, case):
        graph, culprits = case
        assume(culprits)
        position = {n.id: i for i, n in enumerate(graph.nodes)}
        placed = set(oracle_topo_sort(graph))
        assert culprits.isdisjoint(placed)
        at_fault = _first_stored_at_fault(graph)
        assert position[at_fault] <= min(position[c] for c in culprits)
        with pytest.raises(UnknownInputError, match=f"^node {at_fault!r} references"):
            topo_sort(graph)

    def test_ties_follow_stored_order_not_id(self):
        nodes = (
            LayerNode("z", Conv2D(4, 1), ("a",)),
            LayerNode("y", Add(), ("z", "x")),
            LayerNode("x", Conv2D(4, 1), ("a",)),
            LayerNode("a", Input()),
        )
        with pytest.raises(UnknownInputError, match="node 'z' references unknown input 'a'"):
            topo_sort(_stored(*nodes))
        assert topo_sort(_stored(nodes[3], nodes[0], nodes[2], nodes[1])) == ["a", "z", "x", "y"]


class TestInferShapes:
    def test_stem_conv_valid_stride2(self):
        graph = ModelGraph(name="t", input_shape=TensorShape(299, 299, 3), num_classes=2, nodes=(
            LayerNode("in", Input()),
            LayerNode("c", Conv2D(32, 3, stride=2, padding="valid"), ("in",)),
        ))
        assert infer_shapes(graph)["c"] == TensorShape(149, 149, 32)

    def test_pointwise_same_identity_on_spatial(self):
        graph = _chain(
            LayerNode("in", Input()),
            LayerNode("s", SeparableConv2D(16, 1), ("in",)),
        )
        assert infer_shapes(graph)["s"] == TensorShape(8, 8, 16)

    def test_add_preserves_shape(self):
        graph = ModelGraph(name="t", input_shape=TensorShape(19, 19, 728), num_classes=2, nodes=(
            LayerNode("in", Input()),
            LayerNode("a", SeparableConv2D(728, 3), ("in",)),
            LayerNode("sum", Add(), ("a", "in")),
        ))
        assert infer_shapes(graph)["sum"] == TensorShape(19, 19, 728)

    def test_add_shape_mismatch(self):
        graph = _chain(
            LayerNode("in", Input()),
            LayerNode("a", Conv2D(16, 1), ("in",)),
            LayerNode("b", Conv2D(8, 1), ("in",)),
            LayerNode("sum", Add(), ("a", "b")),
        )
        with pytest.raises(ShapeMismatchError):
            infer_shapes(graph)

    def test_valid_padding_window_too_large(self):
        graph = _chain(
            LayerNode("in", Input()),
            LayerNode("g", GlobalAvgPool(), ("in",)),
            LayerNode("c", Conv2D(4, 3, padding="valid"), ("g",)),
        )
        with pytest.raises(NonPositiveDimError):
            infer_shapes(graph)

    def test_collapse_layers(self):
        graph = _chain(
            LayerNode("in", Input()),
            LayerNode("g", GlobalAvgPool(), ("in",)),
            LayerNode("d", Dense(5), ("g",)),
        )
        shapes = infer_shapes(graph)
        assert shapes["g"] == TensorShape(1, 1, 3)
        assert shapes["d"] == TensorShape(1, 1, 5)

    def test_equal_dims_share_one_shape(self, xception):
        shapes = infer_shapes(xception)
        made = [s for s in shapes.values() if s is not xception.input_shape]
        assert len({id(s) for s in made}) == len(set(made)) < len(made)

    def test_shapes_are_not_shared_across_calls(self, xception):
        # Each call returns its own dict; a graph keeps its own shapes, and no
        # two graph objects share them, so no cache outlives a graph.
        first, second = infer_shapes(xception), infer_shapes(xception)
        assert first == second and first is not second
        first[next(iter(first))] = None
        assert infer_shapes(xception) == second
        third = infer_shapes(dataclasses.replace(xception))
        assert third == second
        assert all(third[k] is not second[k] for k in third if third[k] is not xception.input_shape)


def _analyses(make, specs):
    """Every analysis of the graph ``make()`` returns, one call each, as values
    that compare equal across graph objects; each pass's result with the
    shapes and entries it keeps (strategy2 with ``specs``)."""
    s1, report1 = strategy1_replace_kernels(make())
    s2, report2 = strategy2_insert_fire(make(), specs)
    return (
        infer_shapes(make()),
        analyze(make()),
        count_params(make()),
        flops_estimate(make()),
        activation_sizes(make(), batch=2),
        memory_estimate(make(), batch=2, mode="training"),
        memory_estimate(make(), mode="inference", optimizer="sgd_momentum"),
        strategy3_audit(make()),
        validate(make()),
        serialize(make()),
        (s1, s1._shapes, s1._params, report1),
        (s2, s2._shapes, s2._params, report2),
    )


def _some_graph(rng):
    """A random valid chain with random tags and no specs, or a random fire
    graph and a spec for each of its modules."""
    if rng.random() < 0.5:
        return random_tags(random_graph(rng), rng), {}
    graph = random_fire_graph(rng)
    return graph, {module: FireModuleSpec(4, 8, 16) for module in group_modules(graph.nodes)}


class TestKeptShapes:
    """A graph object keeps its nodes' output shapes once its stored order is
    checked and its shapes inferred, and their parameter entries once an
    analysis builds them; every later analysis reads them back."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_analyses_match_a_fresh_copy(self, seed):
        graph, specs = _some_graph(random.Random(seed))
        validate(graph)
        assert graph._shapes == tuple(infer_shapes(dataclasses.replace(graph)).values())
        assert graph._params is None  # validate builds no entries
        assert dataclasses.replace(graph)._shapes is None
        assert _analyses(lambda: graph, specs) == _analyses(lambda: dataclasses.replace(graph), specs)
        assert graph._params == count_params(dataclasses.replace(graph)).per_layer
        assert count_params(graph).per_layer is graph._params
        assert dataclasses.replace(graph)._params is None

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_strategy1_shares_every_untargeted_entry(self, seed):
        graph, _ = _some_graph(random.Random(seed))
        result, report = strategy1_replace_kernels(graph)
        targets = {change.node_id for change in report.nodes_changed}
        assert len(result._params) == len(graph._params) == len(graph.nodes)
        for node, before, after in zip(graph.nodes, graph._params, result._params):
            assert (after is before) == (node.id not in targets), node.id
        assert result._params == count_params(dataclasses.replace(result)).per_layer

    @settings(max_examples=200, deadline=None)
    @given(_stored_graphs())
    def test_failed_inference_keeps_nothing(self, case):
        # cycles, dangling inputs and repeated ids, and Add width mismatches
        # in random wirings: every call raises the first one's error again
        graph, _culprits = case
        outcomes = []
        for call in (infer_shapes, analyze, activation_sizes, infer_shapes, count_params):
            try:
                call(graph)
                outcomes.append(None)
            except ValidationError as exc:
                outcomes.append((type(exc), str(exc)))
                assert graph._shapes is None and graph._params is None
        assert outcomes.count(outcomes[0]) == len(outcomes)
        if outcomes[0] is not None:
            with pytest.raises(outcomes[0][0], match=f"^{re.escape(outcomes[0][1])}$"):
                validate(graph)
            assert graph._shapes is None and graph._params is None
        else:
            assert graph._shapes == tuple(infer_shapes(dataclasses.replace(graph)).values())
            assert graph._params == count_params(dataclasses.replace(graph)).per_layer

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(("num_classes", "name", "metadata", "two_terminals", "two_inputs")))
    def test_bad_endpoints_raise_on_every_validate(self, seed, fault):
        good = random_graph(random.Random(seed))
        validate(good)
        graph = {
            "num_classes": lambda: dataclasses.replace(good, num_classes=good.num_classes + 1),
            "name": lambda: dataclasses.replace(good, name=7),
            "metadata": lambda: good,
            "two_terminals": lambda: dataclasses.replace(
                good, nodes=(*good.nodes, LayerNode("extra", Activation(), (good.nodes[0].id,)))),
            "two_inputs": lambda: dataclasses.replace(
                good, nodes=(*good.nodes, LayerNode("extra", Input()))),
        }[fault]()
        infer_shapes(graph)  # its shapes check out, and it keeps them
        assert graph._shapes is not None
        if fault == "metadata":
            graph.metadata["key"] = 1  # the dict stays mutable after the check
        messages = set()
        for call in (validate, validate, serialize, validate):
            with pytest.raises(ValidationError) as exc:
                call(graph)
            messages.add(str(exc.value))
        assert len(messages) == 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_pickled_and_copied_graphs_keep_their_shapes(self, seed):
        graph, specs = _some_graph(random.Random(seed))
        count_params(graph)
        assert graph._shapes is not None and graph._params is not None
        for other in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph), copy.copy(graph)):
            assert other == graph and other._shapes == graph._shapes
            assert other._params == graph._params
            assert _analyses(lambda: other, specs) == _analyses(lambda: graph, specs)

    def test_shape_loop_keeps_nothing(self, xception):
        # shapes_in_order keeps nothing, as nothing checks its precondition
        fresh = dataclasses.replace(xception)
        assert cndkit.graph.shapes_in_order(fresh) == infer_shapes(xception)
        assert fresh._shapes is None


_ONE_OF_EACH = {type(k): k for k in (
    Input(), Conv2D(4, 3, has_bias=True), SeparableConv2D(4, 3), MaxPool(), GlobalAvgPool(),
    BatchNorm(), Activation(), Add(), Dense(4))}


class _SubConv(Conv2D):
    pass


class TestKindTables:
    def test_every_kind_has_one_shape_rule(self):
        # One row per class in KINDS holds all the package knows of a kind:
        # every other kind list derives from it, and no module keeps a second
        # table keyed by kind class.
        assert KIND_CLASSES == tuple(KINDS)
        assert len(KIND_CLASSES) == len(set(KIND_CLASSES))
        assert set(typing.get_args(LayerKind)) == set(KIND_CLASSES)
        assert set(sys.modules["cndkit.serialize"]._KIND_BY_NAME.values()) == set(KIND_CLASSES)
        for info in pkgutil.iter_modules(cndkit.__path__):
            module = importlib.import_module(f"cndkit.{info.name}")
            assert not [v for v in vars(module).values() if isinstance(v, dict) and v is not KINDS
                        and set(v) & set(KIND_CLASSES)], info.name
        assert set(_ONE_OF_EACH) == set(KIND_CLASSES)
        for cls, row in KINDS.items():
            assert row._fields == ("arity", "shape", "attrs", "channels", "params")
            assert row.arity in (0, 1, 2) and callable(row.shape)
            assert row.attrs == tuple(f.name for f in dataclasses.fields(cls))
            assert row.channels(TensorShape(2, 3, 5)) == (30 if cls is Dense else 5)
            node = LayerNode("n", _ONE_OF_EACH[cls], ("x",) * row.arity)
            entry = row.params("n", node.kind, 5)
            assert type(entry) is LayerParams and entry[:2] == ("n", 5)
            assert count_params_layer(node, 5) == entry

    def test_every_attr_has_one_rule_and_every_rule_a_kind(self):
        # Each attr name has one value rule, applied by the one __post_init__
        # all kinds share, with each kind's checks worked out once.
        rules = cndkit.graph._ATTR_RULES
        assert set(rules) == {attr for row in KINDS.values() for attr in row.attrs}
        for cls, row in KINDS.items():
            assert cls.__post_init__ is cndkit.graph._check_attrs, cls.__name__
            assert cls._checks == tuple((a, f"{cls.__name__} {a}", rules[a]) for a in row.attrs)

    def test_no_module_reads_a_kind_row_by_position(self):
        # KINDS rows are read by column name: an int subscript or a whole-row
        # unpack of a row would break when a column is added.
        def is_lookup(expr):  # KINDS[...] or KINDS.get(...), as a name or an attribute
            if isinstance(expr, ast.Call) and getattr(expr.func, "attr", None) == "get":
                expr = expr.func.value
            elif isinstance(expr, ast.Subscript):
                expr = expr.value
            else:
                return False
            return getattr(expr, "id", getattr(expr, "attr", None)) == "KINDS"

        def is_rows(expr):  # KINDS.values() or KINDS.items()
            return (isinstance(expr, ast.Call) and getattr(expr.func, "attr", None) in ("values", "items")
                    and getattr(expr.func.value, "id", getattr(expr.func.value, "attr", None)) == "KINDS")

        found = []
        for path in sorted(Path(cndkit.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            rows = set()  # names bound to a row
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and is_lookup(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            rows.add(target.id)
                        else:
                            found.append((path.name, node.lineno, "unpacked"))
                elif isinstance(node, (ast.For, ast.comprehension)) and is_rows(node.iter):
                    row = node.target
                    if node.iter.func.attr == "items" and isinstance(row, ast.Tuple):
                        row = row.elts[-1]
                    if isinstance(row, ast.Name):
                        rows.add(row.id)
                    else:
                        found.append((path.name, getattr(node, "lineno", node.iter.lineno), "unpacked"))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                        and type(node.slice.value) is int
                        and (is_lookup(node.value) or getattr(node.value, "id", None) in rows)):
                    found.append((path.name, node.lineno, "subscripted"))
        assert found == []

    def test_only_graph_py_names_the_kept_columns(self):
        # graph.py owns a graph's kept shapes and entries: every other module
        # reads them through shapes_of and entries_of and keeps a pass's or
        # load's through checked, so it never names the fields or a raw writer
        names = {"_shapes", "_params", "_keep_shapes"}
        found = []
        for path in sorted(Path(cndkit.__file__).parent.glob("*.py")):
            if path.name == "graph.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                named = (getattr(node, "attr", None), getattr(node, "id", None),
                         getattr(node, "name", None) if isinstance(node, ast.alias) else None,
                         node.value if isinstance(node, ast.Constant) else None)
                if names.intersection(n for n in named if isinstance(n, str)):
                    found.append((path.name, node.lineno))
        assert found == []

    @pytest.mark.parametrize("kind", [_SubConv(4, 1), object(), "Conv2D", None, 3])
    def test_unknown_kind_is_a_validation_error(self, kind):
        graph = _stored(
            LayerNode("in", Input()),
            LayerNode("x", kind, ("in",)),
            LayerNode("g", GlobalAvgPool(), ("x",)),
            LayerNode("d", Dense(2), ("g",)),
        )
        for analysis in (infer_shapes, validate, analyze):
            with pytest.raises(ValidationError, match="node 'x': unknown layer kind"):
                analysis(graph)
        with pytest.raises(ValidationError, match="node 'x': unknown layer kind"):
            count_params_layer(graph.nodes[1], 3)
        with pytest.raises(ValidationError, match="node 'x': unknown layer kind"):
            topo_sort(_stored(*graph.nodes[:2]))

    def test_is_conv_takes_exact_classes(self):
        assert is_conv(Conv2D(4, 1)) and is_conv(SeparableConv2D(4, 1))
        assert not is_conv(_SubConv(4, 1))
        assert not is_conv(MaxPool())

    def test_unknown_input_kind_is_a_validation_error(self):
        class SubInput(Input):
            pass

        graph = _stored(LayerNode("in", SubInput()), LayerNode("g", GlobalAvgPool(), ("in",)))
        for analysis in (infer_shapes, validate, analyze):
            with pytest.raises(ValidationError):
                analysis(graph)


# Values drawn for every kind attr, beside each attr's valid value and choices.
_ATTR_VALUES = (0, -1, 1, 2**31 - 1, 2**31, 10**5000, True, False, 1.0, "3", "same", None, [3])


class TestKindAttrOracle:
    """Every attr of every kind, built three ways, is accepted or raises
    exactly the text ``graphgen.oracle_attr_error`` writes from the README's
    rules; with more than one bad attr the first field's error wins."""

    def test_oracle_lists_every_kind_s_fields_in_order(self):
        assert {cls.__name__: tuple(f.name for f in dataclasses.fields(cls)) for cls in KIND_CLASSES} \
            == {kind: tuple(name for name, _, _ in attrs) for kind, attrs in ORACLE_KIND_ATTRS.items()}

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_constructor_replace_and_load_raise_the_oracle_s_text(self, data):
        cls = data.draw(st.sampled_from(KIND_CLASSES))
        name = cls.__name__
        attrs = ORACLE_KIND_ATTRS[name]
        valid = {attr: value for attr, value, _ in attrs}
        changes = {}
        for attr, value, rule in attrs:
            if data.draw(st.booleans()):
                choices = rule[1] if rule[0] == "choice" else ()
                changes[attr] = data.draw(st.sampled_from((value, *choices, *_ATTR_VALUES)))
        expected = oracle_attr_error(name, {**valid, **changes})
        for build in (lambda: cls(**{**valid, **changes}),
                      lambda: dataclasses.replace(cls(**valid), **changes)):
            if expected is None:
                assert type(build()) is cls
            else:
                with pytest.raises(ValidationError) as exc:
                    build()
                assert str(exc.value) == expected
        if HUGE in changes.values():
            return  # JSON text cannot carry an int Python will not print
        entry = {"id": "n", "kind": name, "attrs": {**valid, **changes}, "inputs": [], "tag": None}
        doc = {"schema_version": 1, "name": "t", "input_shape": [8, 8, 3], "num_classes": 3,
               "metadata": {}, "nodes": [entry]}
        try:
            deserialize(json.dumps(doc))
        except ParseError as exc:
            got = (exc.message, exc.field)
        else:
            got = None
        if expected is None:  # a later check (the arity) may still reject the entry
            assert got is None or got[1] != "nodes[0].attrs"
        else:
            assert got == (f"bad attrs for {name}: {expected}", "nodes[0].attrs")


_IDS = st.text(max_size=3)
_NODE_IDS = st.one_of(_IDS, st.just(""), st.integers(), st.none(), st.just(10**5000),
                      st.lists(_IDS, max_size=2), st.just("x" * 100))
_NODE_TAGS = st.one_of(st.none(), st.text(max_size=5), st.integers(), st.lists(_IDS, max_size=2))
_ITEMS = st.one_of(_IDS, st.integers(), st.none(), st.just(b"in"))
_NODE_INPUTS = st.one_of(
    st.lists(_IDS, max_size=3).map(tuple), st.lists(_IDS, max_size=3),
    st.lists(_ITEMS, max_size=3).map(tuple), st.lists(_ITEMS, max_size=3),
    st.dictionaries(_IDS, st.integers(), max_size=2), _IDS, st.integers(), st.none(),
)


class TestNodeOracle:
    """``LayerNode``, built directly or by ``dataclasses.replace``, accepts
    its fields or raises exactly the text ``graphgen.oracle_node_error``
    writes from the node rules, checked in their order; it stays a frozen
    slotted value."""

    KIND = Conv2D(8, 3)

    @given(_NODE_IDS, _NODE_INPUTS, _NODE_TAGS, st.data())
    @settings(max_examples=400, deadline=None)
    def test_constructor_and_replace_raise_the_oracle_s_text(self, node_id, inputs, tag, data):
        base = LayerNode("base", Input())
        changes = {name: value for name, value in (("id", node_id), ("inputs", inputs), ("tag", tag))
                   if data.draw(st.booleans(), label=f"replace {name}")}
        want = {"id": base.id, "inputs": base.inputs, "tag": base.tag, **changes}
        builds = {
            "positional": (lambda: LayerNode(node_id, self.KIND, inputs, tag),
                           (node_id, inputs, tag)),
            "keyword": (lambda: LayerNode(tag=tag, inputs=inputs, kind=self.KIND, id=node_id),
                        (node_id, inputs, tag)),
            "defaults": (lambda: LayerNode(node_id, self.KIND), (node_id, (), None)),
            "replace": (lambda: dataclasses.replace(base, **changes),
                        (want["id"], want["inputs"], want["tag"])),
        }
        for how, (build, (i, ins, t)) in builds.items():
            expected = oracle_node_error(i, ins, t)
            if expected is None:
                node = build()
                assert (node.id, node.inputs, node.tag) == (i, tuple(ins), t), how
                assert type(node.inputs) is tuple, how
            else:
                with pytest.raises(ValidationError) as exc:
                    build()
                assert str(exc.value) == expected, how

    def test_frozen_slotted_value(self):
        node = LayerNode("n", self.KIND, ["in"], "f/m1/sep1")
        assert not hasattr(node, "__dict__")
        for name in ("id", "kind", "inputs", "tag"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, "x")
        assert (node.id, node.kind, node.inputs, node.tag) == ("n", self.KIND, ("in",), "f/m1/sep1")
        for copied in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node), copy.copy(node)):
            assert copied == node and hash(copied) == hash(node) and repr(copied) == repr(node)
        assert repr(node) == ("LayerNode(id='n', kind=Conv2D(filters=8, kernel=3, stride=1, "
                              "padding='same', has_bias=False), inputs=('in',), tag='f/m1/sep1')")


class TestSlottedValues:
    """The IR classes are slotted: a graph holds one node per layer, and a
    ``__dict__`` would add about a hundred bytes to each."""

    @pytest.mark.parametrize("value", [
        TensorShape(1, 2, 3), *_ONE_OF_EACH.values(), LayerNode("n", Input()),
        _empty(), ModelMeasurement("m", "e", 50, 60.5, 100), NodeChange("n", "a", "b"),
    ], ids=lambda value: type(value).__name__)
    def test_setting_or_deleting_any_name_is_frozen(self, value):
        # as on an unslotted frozen dataclass, for a field or any other name
        shown = repr(value)
        for name in [f.name for f in dataclasses.fields(value)] + ["extra"]:
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                delattr(value, name)
        assert repr(value) == shown

    def test_a_subclass_may_set_its_own_names(self):
        sub = _SubConv(4, 3)
        sub.extra = 1
        del sub.extra
        with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'filters'$"):
            sub.filters = 8

    def test_no_instance_has_a_dict(self, xception):
        values = [_ONE_OF_EACH[cls] for cls in KIND_CLASSES]
        values += [xception.nodes[1], xception, xception.input_shape]
        for value in values:
            assert not hasattr(value, "__dict__"), type(value).__name__

    def test_pickle_and_deepcopy_round_trips(self, xception, optimized, mobilenet):
        for graph in (xception, optimized, mobilenet):
            assert pickle.loads(pickle.dumps(graph)) == graph
            assert copy.deepcopy(graph) == graph

    def test_replace_still_checks_the_kind(self):
        with pytest.raises(ValidationError, match="^SeparableConv2D kernel must be one of \\(1, 3\\), got 5$"):
            dataclasses.replace(SeparableConv2D(8, 3), kernel=5)


class TestSlottedRecords:
    """``ModelMeasurement`` is slotted too: a 1,500-row measurement set holds
    one record per row."""

    def test_no_record_has_a_dict(self):
        for name in FIXTURE_NAMES:
            assert not any(hasattr(r, "__dict__") for r in load_fixture(name))

    def test_pickle_and_deepcopy_round_trips(self):
        for name in FIXTURE_NAMES:
            records = load_fixture(name)
            assert pickle.loads(pickle.dumps(records)) == records
            assert copy.deepcopy(records) == records

    def test_replace_still_checks_the_range(self):
        record = load_fixture("caltech101")[0]
        with pytest.raises(MeasurementRangeError, match=r"test_acc=120.0 outside \[0, 100\]"):
            dataclasses.replace(record, test_acc=120.0)


HUGE = 10**5000


class TestUnprintableValues:
    """A value echoed in an error is capped, even an int with more digits
    than ``sys.get_int_max_str_digits()`` allows to print."""

    @pytest.mark.parametrize("make", [
        lambda: TensorShape(HUGE, 1, 1),
        lambda: Conv2D(HUGE, 3),
        lambda: memory_estimate(_chain(LayerNode("in", Input())), batch=HUGE),
        lambda: memory_estimate(_chain(LayerNode("in", Input())), batch=-HUGE),
        lambda: validate(_headed(num_classes=HUGE)),
        lambda: validate(_headed(num_classes=-HUGE)),
        lambda: LayerNode("x" * 100_000, Input(), (), 5),
        lambda: LayerNode("x" * 100_000, Add(), "y" * 100_000),
        lambda: LayerNode("a", Add(), ["b", b"y" * 100_000]),
        lambda: LayerNode("a", Input(), (), b"t" * 100_000),
        lambda: validate(_headed(name=[HUGE])),
        lambda: validate(_headed(metadata={"k": "v" * 100_000, 1: 2})),
    ], ids=["shape-dim", "filters", "batch", "negative-batch", "num-classes",
            "negative-num-classes", "node-id", "string-inputs", "input-id", "tag", "name",
            "metadata"])
    def test_is_a_validation_error_with_a_short_message(self, make):
        with pytest.raises(ValidationError) as exc:
            make()
        assert len(str(exc.value)) < 4 * ECHO_LIMIT


class TestValidate:
    def test_single_input_required(self):
        graph = ModelGraph(
            name="t",
            input_shape=TensorShape(8, 8, 3),
            num_classes=2,
            nodes=(LayerNode("a", Input()), LayerNode("b", Input())),
        )
        with pytest.raises(ValidationError):
            validate(graph)

    def test_single_terminal_required(self):
        graph = _chain(
            LayerNode("in", Input()),
            LayerNode("a", Conv2D(4, 1), ("in",)),
            LayerNode("b", Conv2D(4, 1), ("in",)),
        )
        with pytest.raises(ValidationError):
            validate(graph)

    def test_head_width_must_be_num_classes(self, xception):
        graph = dataclasses.replace(xception, num_classes=7)
        message = "terminal node 'predictions' outputs 101 channels, but num_classes is 7"
        with pytest.raises(ValidationError) as exc:
            validate(graph)
        assert str(exc.value) == message
        with pytest.raises(ValidationError, match=message):
            cndkit.serialize(graph)

    def test_random_graphs_validate(self):
        rng = random.Random(11)
        for _ in range(25):
            validate(random_graph(rng))

    def test_nodes_must_be_stored_in_dependency_order(self):
        graph = _stored(
            LayerNode("d", Dense(2), ("c",)),
            LayerNode("c", GlobalAvgPool(), ("in",)),
            LayerNode("in", Input()),
        )
        for check in (topo_sort, infer_shapes, analyze, validate):
            with pytest.raises(UnknownInputError, match="node 'd' references unknown input 'c'"):
                check(graph)

    def test_cycle_reported_as_unknown_input(self):
        graph = _stored(
            LayerNode("in", Input()),
            LayerNode("b", Conv2D(4, 1), ("c",)),
            LayerNode("c", Conv2D(4, 1), ("b",)),
        )
        with pytest.raises(UnknownInputError, match="node 'b' references unknown input 'c'"):
            validate(graph)

    def test_first_bad_node_wins(self):
        graph = _stored(
            LayerNode("in", Input()),
            LayerNode("a", Conv2D(4, 1), ("in", "in")),
            LayerNode("in", Conv2D(4, 1), ("a",)),
        )
        with pytest.raises(ArityError, match="node 'a'"):
            validate(graph)


class TestFieldTypes:
    # Each of these would pass validate untyped and then make serialize raise
    # a bare TypeError, or write a value deserialize rejects.

    @pytest.mark.parametrize("node_id", [5, None, ("a",)])
    def test_node_id_must_be_a_string(self, node_id):
        with pytest.raises(ValidationError, match="node id must be a non-empty string"):
            LayerNode(node_id, Input())

    @pytest.mark.parametrize("tag", [3, b"m/x/y", ["flow", "m1", "conv"]])
    def test_tag_must_be_a_string_or_none(self, tag):
        with pytest.raises(ValidationError, match="node 'c' tag must be a string or None"):
            LayerNode("c", Conv2D(4, 1), ("in",), tag)

    @pytest.mark.parametrize("inputs", ["in", "xy", None, 5])
    def test_inputs_must_be_a_sequence_not_a_string(self, inputs):
        with pytest.raises(ValidationError, match="node 'a' inputs must be a sequence of node ids"):
            LayerNode("a", Activation(), inputs)

    @pytest.mark.parametrize("inputs", [(1,), ("in", None), [b"in"], (("in",),)])
    def test_input_ids_must_be_strings(self, inputs):
        with pytest.raises(ValidationError, match="node 'a' input ids must be strings"):
            LayerNode("a", Add(), inputs)

    def test_inputs_list_becomes_a_tuple(self):
        assert LayerNode("a", Add(), ["x", "y"]).inputs == ("x", "y")

    def _graph(self, **fields):
        graph = _chain(LayerNode("in", Input()), LayerNode("g", GlobalAvgPool(), ("in",)),
                       LayerNode("d", Dense(2), ("g",)))
        return dataclasses.replace(graph, **fields)

    @pytest.mark.parametrize("name", [5, None, b"t"])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(ValidationError, match="graph name must be a string"):
            validate(self._graph(name=name))

    @pytest.mark.parametrize("metadata", [{"a": 1}, {1: "a"}, {"a": None}, [("a", "b")]])
    def test_metadata_must_map_strings_to_strings(self, metadata):
        with pytest.raises(ValidationError, match="graph metadata must"):
            validate(self._graph(metadata=metadata))

    def test_a_graph_keeps_its_own_metadata(self):
        # A pass result, a dataclasses.replace copy and a graph whose caller
        # changes its dict afterwards each hold a dict of their own.
        base = build_xception()
        before = dict(base.metadata)
        made = [strategy1_replace_kernels(base)[0],
                strategy2_insert_fire(base, {"entry_flow/m2": FireModuleSpec(64, 96, 128)})[0],
                dataclasses.replace(base, name="copy")]
        for graph in made:
            assert graph is not base and graph.metadata == before
            graph.metadata["variant"] = "changed"
        assert base.metadata == before
        theirs = {"family": "t"}
        graph = self._graph(metadata=theirs)
        theirs["family"] = "changed"
        assert graph.metadata == {"family": "t"}

    @pytest.mark.parametrize("num_classes", [2.0, True, "2", None])
    def test_num_classes_must_be_an_exact_int(self, num_classes):
        with pytest.raises(ValidationError, match="num_classes must be an int"):
            validate(self._graph(num_classes=num_classes))

    def test_num_classes_is_at_most_max_size(self):
        with pytest.raises(ValidationError, match=f"^num_classes must be at most {MAX_SIZE}, got "):
            validate(self._graph(num_classes=MAX_SIZE + 1))

    @pytest.mark.parametrize("shape", [(8, 8, 3), None, "8x8x3"])
    def test_input_shape_must_be_a_tensor_shape(self, xception, shape):
        # raised before any shape is read, so never a bare AttributeError
        message = f"^input_shape must be a TensorShape, got {re.escape(repr(shape))}$"
        graph = dataclasses.replace(xception, input_shape=shape)
        spec = {"middle_flow/m5": FireModuleSpec(414, 600, 728)}
        for run in (validate, infer_shapes, analyze, activation_sizes, memory_estimate,
                    cndkit.serialize, strategy1_replace_kernels,
                    lambda g: strategy2_insert_fire(g, spec)):
            with pytest.raises(ValidationError, match=message):
                run(graph)
        for build in (build_xception, build_optimized_xception, build_mobilenet_v2):
            with pytest.raises(ValidationError, match=message):
                build(input_shape=shape)


_TAGS = st.one_of(
    st.none(),
    st.lists(st.sampled_from(("", "f", "m1", "sep1", "residual")), min_size=1, max_size=5)
    .map("/".join),
    st.text(alphabet="ab/", max_size=6),
)


class TestTags:
    def test_split(self):
        tags = ("entry_flow/m2/sep1", None, "loose")
        nodes = [LayerNode(f"n{i}", Input(), (), tag) for i, tag in enumerate(tags)]
        assert group_modules(nodes) == {"entry_flow/m2": [("sep1", nodes[0])]}

    @given(st.lists(_TAGS, max_size=12))
    @example([None, "flat", "a/b", "a//b", "f/m1/x/sep1", "f/m1/sep2", "f/m2/residual", "a//c"])
    # runs of one module: left and re-entered, broken by a flat tag, a 4-part
    # tag beside 3-part ones, None and "" between members, and only slashes
    @example(["f/m1/a", "g/m2/a", "f/m1/b"])
    @example(["f/m1/a", "f/m1", "f/m1/b"])
    @example(["f/m1/x/a", "f/m1/b", "f/m1/x/c"])
    @example(["f/m1/a", None, "f/m1/b", "", "f/m1/c"])
    @example(["///", "//", "///"])
    @settings(max_examples=200, deadline=None)
    def test_grouping_matches_an_independent_split(self, tags):
        nodes = tuple(LayerNode(f"n{i}", Input(), (), tag) for i, tag in enumerate(tags))
        expected: dict[str, list] = {}
        for node in nodes:
            module, role = oracle_split_tag(node.tag)
            if module is not None:
                expected.setdefault(module, []).append((role, node))
        groups = group_modules(nodes)
        assert list(groups.items()) == list(expected.items())
        assert all(a is b for m in groups for (_, a), (_, b) in zip(groups[m], expected[m]))

    def test_only_graph_splits_tags(self):
        # Tags are split in graph.group_modules alone; every other module
        # reads its grouping.
        split = re.compile(r"""\.(?:r?split|r?partition)\(\s*['"]/['"]""")
        for path in sorted(Path(cndkit.__file__).parent.glob("*.py")):
            found = split.findall(path.read_text(encoding="utf-8"))
            assert len(found) == (1 if path.name == "graph.py" else 0), path.name
