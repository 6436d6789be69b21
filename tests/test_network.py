"""Tests for network instances, matrix assembly, classification and the
scenario schema."""

import numbers
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import complete_uniform_net, leader_net, random_net
import opiniongame.network as network_module
from opiniongame.network import (CompleteUniform, InfluenceNetwork,
                                 SingleLeader, build_matrices,
                                 classify_topology, network_from_dict,
                                 network_to_dict, validate)


def test_build_complete_uniform_entries():
    net = complete_uniform_net(3, 1.0, 0.5, [0.1, 0.5, 0.9], 2.0)
    W = build_matrices(net)
    np.testing.assert_allclose(np.diag(W), [2.5, 2.5, 2.5])
    off = W[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, -1.0)
    np.testing.assert_allclose(net.k, [0.5, 0.5, 0.5])


def test_build_single_leader_triangular():
    net = leader_net(4, [0.0, 1.0, 2.0, 3.0], [0.3, 0.1, 0.2, 0.4],
                     [0.2, 0.4, 0.6, 0.8], 1.0)
    W = build_matrices(net)
    assert np.allclose(W, np.tril(W))
    assert W[0, 0] == pytest.approx(0.3)           # leader: q_1 = k_1
    np.testing.assert_allclose(W.diagonal()[1:], [1.1, 2.2, 3.4])  # q_i = k_i + w_i1
    np.testing.assert_allclose(W[1:, 0], [-1.0, -2.0, -3.0])


def test_build_single_agent():
    net = InfluenceNetwork(n=1, edges={}, k=[0.3], x0=[0.5], T=1.0)
    W = build_matrices(net)
    assert W.shape == (1, 1) and W[0, 0] == pytest.approx(0.3)


def test_row_sums_equal_stubbornness():
    rng = np.random.default_rng(21)
    for _ in range(10):
        net = random_net(rng)
        W = build_matrices(net)
        resid = W @ np.ones(net.n) - net.k
        assert np.max(np.abs(resid)) <= 1e-12 * net.n


def test_build_matrices_permutation_equivariance():
    # new agent a is old agent perm[a]; W must permute rows and columns alike
    rng = np.random.default_rng(33)
    net = random_net(rng, n=7)
    perm = rng.permutation(7)
    inv = np.argsort(perm)
    relabeled = InfluenceNetwork(
        n=7,
        edges={(int(inv[i]), int(inv[j])): w for (i, j), w in net.edges.items()},
        k=net.k[perm], x0=net.x0[perm], T=net.T)
    W = build_matrices(net)
    W2 = build_matrices(relabeled)
    np.testing.assert_allclose(W2, W[np.ix_(perm, perm)], atol=1e-15)
    np.testing.assert_allclose(W2.diagonal(), W.diagonal()[perm], atol=1e-15)


def test_validate_clean_network():
    net = complete_uniform_net(3, 1.0, 0.5, [0.1, 0.5, 0.9], 2.0)
    assert validate(net) == []
    assert not any(d.severity == "error" for d in validate(net))


def test_validate_flags_self_edge():
    net = InfluenceNetwork(n=3, edges={(1, 1): 1.0}, k=[0, 0, 0],
                           x0=[0.1, 0.2, 0.3], T=1.0)
    msgs = [d.message for d in validate(net) if d.severity == "error"]
    assert any("self-edge" in m for m in msgs)
    assert any(d.severity == "error" for d in validate(net))


def test_validate_flags_negative_weight_and_bad_index():
    net = InfluenceNetwork(n=2, edges={(0, 1): -1.0, (0, 5): 1.0},
                           k=[0, 0], x0=[0.1, 0.2], T=1.0)
    sev = {d.severity for d in validate(net)}
    assert sev == {"error"}
    assert len(validate(net)) == 2


def per_edge_diagnostics(net):
    """validate's edge messages, one edge at a time in dict order."""
    n, out = net.n, []
    for (i, j), w in net.edges.items():
        tag = f"edge ({i + 1}, {j + 1})"
        if not (isinstance(i, numbers.Integral) and isinstance(j, numbers.Integral)):
            out.append(f"error: {tag}: indices must be integers")
        elif not (0 <= i < n and 0 <= j < n):
            out.append(f"error: {tag}: agent index out of range 1..{n}")
        else:
            if i == j:
                out.append(f"error: self-edge on agent {i + 1}")
            if not np.isfinite(w) or w < 0:
                out.append(f"error: {tag}: weight must be finite and >= 0, got {w}")
    return out


@pytest.mark.parametrize("extra, vectorized", [
    ({}, True), ({(np.int64(2), -1): 3.0}, True), ({(np.uint64(2), np.int64(0)): 3.0}, True),
    ({(1.5, 0): 3.0}, False), ({(np.bool_(True), 3): 3.0}, False)])
def test_validate_reports_failing_edges_in_edge_order(monkeypatch, extra, vectorized):
    # with integer keys the checks run on edge arrays and only the failing
    # edges, picked by itertools.compress, are walked for their messages; a
    # key that is not a numbers.Integral (np.bool_ is not) sends every edge
    # through the walk; either way the messages must match an edge-by-edge pass
    edges = {(0, 1): 1.0, (3, 3): -2, (1, 0): float("nan"), (0, 7): 1.0,
             (2, 1): 0.5, (1, 2): float("inf"), (2, 2): True, (-1, 0): 1.0, **extra}
    net = InfluenceNetwork(n=4, edges=edges, k=[0.1] * 4, x0=[0.5] * 4, T=1.0)
    picks = []
    compress = network_module.itertools.compress
    monkeypatch.setattr(network_module.itertools, "compress",
                        lambda data, keep: picks.append(keep) or compress(data, keep))
    assert [str(d) for d in validate(net)] == per_edge_diagnostics(net)
    assert bool(picks) == vectorized


@pytest.mark.parametrize("edge, message", [
    ({(0, 1, 2): 1.0}, "edge key (0, 1, 2): must be a pair of agent indices"),
    ({0: 1.0}, "edge key 0: must be a pair of agent indices"),
    ({(0, 1): "a"}, "edge (1, 2): weight must be a real number, got 'a'"),
    ({(0, 1): None}, "edge (1, 2): weight must be a real number, got None"),
    ({(0, 1): 1 + 2j}, "edge (1, 2): weight must be a real number, got (1+2j)"),
    ({(0, 1): [1.0]}, "edge (1, 2): weight must be a real number, got [1.0]"),
])
def test_validate_reports_malformed_edges(edge, message):
    # a key that is not a pair or a weight that is not a real number is an
    # error diagnostic like any other, never an exception from the checks
    net = InfluenceNetwork(n=3, edges={(1, 0): 1.0, **edge}, k=[0.1] * 3,
                           x0=[0.5] * 3, T=1.0)
    assert [str(d) for d in validate(net)] == [f"error: {message}"]
    with pytest.raises(ValueError, match=re.escape(f"invalid network: {message}")):
        net.W


def test_matrices_follow_the_edge_dict():
    net = random_net(np.random.default_rng(4), n=7)
    W = np.zeros((7, 7))
    for (a, b), weight in net.edges.items():
        W[a, b] -= weight
    np.fill_diagonal(W, -W.sum(axis=1) + net.k)
    assert build_matrices(net).tobytes() == W.tobytes()


def test_mixed_integer_key_types_assemble_like_python_ints():
    # np.uint64 and np.int64 together promote to float64 in a plain
    # np.array; the edge arrays must still hold the integer indices
    mixed = InfluenceNetwork(n=3, edges={(np.uint64(2), np.int64(0)): 1.5, (0, np.uint64(1)): 2.0},
                             k=[0.1] * 3, x0=[0.5] * 3, T=1.0)
    plain = InfluenceNetwork(n=3, edges={(2, 0): 1.5, (0, 1): 2.0},
                             k=[0.1] * 3, x0=[0.5] * 3, T=1.0)
    assert validate(mixed) == []
    assert build_matrices(mixed).tobytes() == build_matrices(plain).tobytes()


def test_validate_warns_on_out_of_range_opinion():
    net = InfluenceNetwork(n=2, edges={}, k=[0, 0], x0=[1.5, 0.0], T=1.0)
    diags = validate(net)
    assert [d.severity for d in diags] == ["warning"]
    assert not any(d.severity == "error" for d in diags)  # warning does not invalidate


@pytest.mark.parametrize("edges, k, agents", [
    ({(0, 1): 1.5e308, (0, 2): 1.5e308}, [0.0, 0.1, 0.2], [1]),
    ({(1, 0): 1e308, (2, 0): 1.7e308}, [0.0, 1e308, 0.5], [2]),
    ({(0, 1): 1.7e308, (2, 1): 1.7e308}, [0.2e308, 0.0, 0.2e308], [1, 3]),
])
def test_validate_names_each_agent_whose_diagonal_overflows(edges, k, agents):
    # every weight and every k is finite, but q_i = sum_j w_ij + k_i is not;
    # validate says so without an overflow warning, and W is never built
    net = InfluenceNetwork(n=3, edges=edges, k=k, x0=[0.1, 0.5, 0.9], T=1.0)
    assert [d.message for d in validate(net)] == [
        f"agent {i}: in-weights plus k sum beyond the float64 range" for i in agents]
    with pytest.raises(ValueError, match=f"agent {agents[0]}: in-weights plus k"):
        net.W


def test_validate_passes_a_diagonal_at_the_top_of_the_float_range():
    big = np.finfo(float).max / 2
    net = InfluenceNetwork(n=3, edges={(0, 1): big, (0, 2): big}, k=[0.0, 0.0, 0.0],
                           x0=[0.1, 0.5, 0.9], T=1.0)
    assert validate(net) == []
    assert net.W[0, 0] == np.finfo(float).max


def test_build_matrices_rejects_invalid():
    net = InfluenceNetwork(n=2, edges={(0, 0): 1.0}, k=[0, 0], x0=[0, 0], T=1.0)
    with pytest.raises(ValueError, match="self-edge"):
        build_matrices(net)


@pytest.mark.parametrize("fields, message", [
    ({"n": 0}, "agent count must be a positive integer, got 0"),
    ({"n": 1.5}, "agent count must be a positive integer, got 1.5"),
    ({"k": [0.1]}, "k must have length 2, got shape (1,)"),
    ({"k": [np.nan, 0.2]}, "k entries must be finite"),
    ({"x0": [[0.1, 0.9]]}, "x0 must have length 2, got shape (1, 2)"),
    ({"x0": [0.1, np.inf]}, "x0 entries must be finite"),
    ({"T": 0.0}, "horizon T must be positive and finite, got 0.0"),
    ({"T": np.nan}, "horizon T must be positive and finite, got nan"),
    ({"n": True}, "agent count must be a positive integer, got True"),
])
def test_validate_rejects_bad_agent_fields(fields, message):
    net = InfluenceNetwork(**{"n": 2, "edges": {(1, 0): 1.0}, "k": [0.1, 0.2],
                              "x0": [0.1, 0.9], "T": 1.0, **fields})
    assert [str(d) for d in validate(net)] == [f"error: {message}"]
    with pytest.raises(ValueError) as info:
        build_matrices(net)
    assert str(info.value) == f"invalid network: {message}"


def test_bool_agent_count_is_rejected_where_an_integer_passes():
    # a bool is a numbers.Integral, but "n": true is rejected from a file too
    fields = {"edges": {}, "k": [0.1], "x0": [0.5], "T": 1.0}
    net = InfluenceNetwork(n=True, **fields)
    assert [str(d) for d in validate(net)] == [
        "error: agent count must be a positive integer, got True"]
    with pytest.raises(ValueError, match="got True"):
        net.W
    assert validate(InfluenceNetwork(n=np.int64(3), edges={(1, 0): 1.0}, k=[0.1] * 3,
                                     x0=[0.1, 0.5, 0.9], T=1.0)) == []


def test_network_fields_are_read_only():
    net = leader_net(2, 1.0, 0.1, [0.0, 1.0], 1.0)
    with pytest.raises(TypeError):
        net.edges[(1, 0)] = 5.0
    with pytest.raises(ValueError):
        net.k[0] = 1.0
    with pytest.raises(ValueError):
        net.x0[0] = 1.0
    assert net.edges == {(1, 0): 1.0}


def test_matrices_are_assembled_once_per_instance(monkeypatch):
    net = complete_uniform_net(3, 1.0, 0.5, [0.1, 0.5, 0.9], 2.0)
    calls = []
    original = network_module._checked
    monkeypatch.setattr(network_module, "_checked",
                        lambda net: calls.append(net) or original(net))
    assert net.W is net.W
    assert len(calls) == 1
    np.testing.assert_array_equal(net.W, build_matrices(net))


def test_replaced_network_gets_its_own_matrices():
    net = leader_net(3, 1.0, 0.2, [0.1, 0.5, 0.9], 2.0)
    W = net.W.copy()
    heavier = replace(net, edges={**net.edges, (2, 0): 5.0})
    assert heavier.W[2, 0] == -5.0 and heavier.W[2, 2] == pytest.approx(5.2)
    np.testing.assert_array_equal(heavier.W, build_matrices(heavier))
    np.testing.assert_array_equal(net.W, W)


def test_invalid_network_raises_on_every_matrices_access():
    net = InfluenceNetwork(n=2, edges={(0, 0): 1.0}, k=[0.1, 0.1], x0=[0.2, 0.8], T=1.0)
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match="self-edge on agent 1") as info:
            net.W
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_classify_complete_uniform():
    net = complete_uniform_net(4, 2.0, 0.2, [0.1, 0.2, 0.3, 0.4], 5.0)
    assert classify_topology(net) == CompleteUniform(n=4, w=2.0, k=0.2, T=5.0)


def test_classify_single_leader():
    net = leader_net(4, [0.0, 1.0, 2.0, 3.0], [0.3, 0.1, 0.2, 0.4],
                     [0.2, 0.4, 0.6, 0.8], 1.0)
    assert isinstance(classify_topology(net), SingleLeader)


def test_classify_general_when_one_k_differs():
    net = complete_uniform_net(3, 1.0, 0.5, [0.1, 0.5, 0.9], 2.0)
    k = net.k.copy()
    k[1] = 0.6
    bumped = InfluenceNetwork(n=3, edges=net.edges, k=k, x0=net.x0, T=net.T)
    assert classify_topology(bumped) is None


def test_classify_single_agent_is_complete_uniform():
    net = InfluenceNetwork(n=1, edges={}, k=[0.3], x0=[0.5], T=1.0)
    assert classify_topology(net) == CompleteUniform(n=1, w=0.0, k=0.3, T=1.0)


def test_classify_invariant_under_relabeling_fixing_leader():
    net = leader_net(5, 1.5, 0.2, [0.1, 0.3, 0.5, 0.7, 0.9], 2.0)
    perm = [0, 3, 1, 4, 2]  # fixes agent 1
    relabeled = InfluenceNetwork(
        n=5,
        edges={(perm.index(i), perm.index(j)): w for (i, j), w in net.edges.items()},
        k=net.k[perm], x0=net.x0[perm], T=net.T)
    assert isinstance(classify_topology(relabeled), SingleLeader)


def test_scenario_round_trip():
    rng = np.random.default_rng(8)
    net = random_net(rng, n=6)
    net = InfluenceNetwork(n=6, edges=net.edges, k=net.k, x0=net.x0,
                           T=net.T, name="round-trip")
    back = network_from_dict(network_to_dict(net))
    assert back.n == net.n and back.T == net.T and back.name == net.name
    np.testing.assert_array_equal(back.k, net.k)
    np.testing.assert_array_equal(back.x0, net.x0)
    assert back.edges == net.edges


def test_scenario_rejects_unknown_keys():
    base = network_to_dict(complete_uniform_net(2, 1.0, 0.1, [0.1, 0.9], 1.0))
    bad = dict(base, extra=1)
    with pytest.raises(ValueError, match="unknown scenario keys"):
        network_from_dict(bad)
    bad_edge = dict(base)
    bad_edge["edges"] = [{"from": 1, "to": 2, "w": 1.0, "weight": 2.0}]
    with pytest.raises(ValueError, match="unknown edge keys"):
        network_from_dict(bad_edge)


def test_scenario_rejects_malformed():
    with pytest.raises(ValueError):
        network_from_dict({"n": 2, "T": 1.0, "x0": [0.1], "k": [0, 0], "edges": []})
    with pytest.raises(ValueError, match="duplicate edge"):
        network_from_dict({"n": 2, "T": 1.0, "x0": [0.1, 0.2], "k": [0, 0],
                           "edges": [{"from": 1, "to": 2, "w": 1.0},
                                     {"from": 1, "to": 2, "w": 2.0}]})
    with pytest.raises(ValueError, match="1..2"):
        network_from_dict({"n": 2, "T": 1.0, "x0": [0.1, 0.2], "k": [0, 0],
                           "edges": [{"from": 1, "to": 3, "w": 1.0}]})


SCENARIO = {"n": 2, "T": 1.0, "x0": [0.1, 0.2], "k": [0, 0], "edges": []}


@pytest.mark.parametrize("data, message", [
    ([SCENARIO], "scenario must be a JSON object"),
    ({k: v for k, v in SCENARIO.items() if k != "T"}, "scenario is missing required key 'T'"),
    ({k: v for k, v in SCENARIO.items() if k != "edges"},
     "scenario is missing required key 'edges'"),
    ({**SCENARIO, "n": 0}, "'n' must be a positive integer, got 0"),
    ({**SCENARIO, "n": True}, "'n' must be a positive integer, got True"),
    ({**SCENARIO, "n": 2.0}, "'n' must be a positive integer, got 2.0"),
    ({**SCENARIO, "x0": [0.1, "0.2"]}, "'x0' entries must be numbers"),
    ({**SCENARIO, "k": [0, None]}, "'k' entries must be numbers"),
    ({**SCENARIO, "k": [0, False]}, "'k' entries must be numbers"),
    ({**SCENARIO, "T": "1"}, "'T' must be a number"),
    ({**SCENARIO, "T": True}, "'T' must be a number"),
    ({**SCENARIO, "edges": {}}, "'edges' must be a list of edge objects"),
    ({**SCENARIO, "name": 3}, "'name' must be a string"),
])
def test_scenario_rejects_bad_fields(data, message):
    with pytest.raises(ValueError) as info:
        network_from_dict(data)
    assert type(info.value) is ValueError and str(info.value) == message


BEYOND_FLOAT64 = 10 ** 309  # a JSON integer that float() cannot hold


@pytest.mark.parametrize("data, message", [
    ({**SCENARIO, "T": BEYOND_FLOAT64}, "'T' is beyond the float64 range"),
    ({**SCENARIO, "k": [0, BEYOND_FLOAT64]}, "'k' entry 2 is beyond the float64 range"),
    ({**SCENARIO, "x0": [-BEYOND_FLOAT64, 0.2]}, "'x0' entry 1 is beyond the float64 range"),
    ({**SCENARIO, "edges": [{"from": 2, "to": 1, "w": BEYOND_FLOAT64}]},
     "edge (2, 1) weight is beyond the float64 range"),
])
def test_scenario_names_a_value_beyond_float64(data, message):
    # float() raises OverflowError, an ArithmeticError, on such a value
    with pytest.raises(ValueError) as info:
        network_from_dict(data)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("entry, message", [
    ({"from": 0, "to": 1, "w": 1.0}, "edge index 'from' must be an integer in 1..2, got 0"),
    ({"from": 1, "to": 3, "w": 1.0}, "edge index 'to' must be an integer in 1..2, got 3"),
    ({"from": True, "to": 2, "w": 1.0}, "edge index 'from' must be an integer in 1..2, got True"),
    ({"from": 1, "to": 2.0, "w": 1.0}, "edge index 'to' must be an integer in 1..2, got 2.0"),
    ({"from": 1, "to": 2, "w": True}, "edge weight must be a number, got True"),
    ({"from": 1, "to": 2, "w": "1"}, "edge weight must be a number, got '1'"),
    ({"from": 1, "to": 2}, "edge is missing key 'w'"),
    ([1, 2], "edge entries must be objects, got [1, 2]"),
])
def test_scenario_names_the_first_bad_edge_entry(entry, message):
    # a bad entry after a good one gets its own message
    data = {"n": 2, "T": 1.0, "x0": [0.1, 0.2], "k": [0, 0],
            "edges": [{"from": 2, "to": 1, "w": 0.5}, entry]}
    with pytest.raises(ValueError) as info:
        network_from_dict(data)
    assert str(info.value).startswith(message)


def test_scenario_accepts_integer_weights():
    net = network_from_dict({"n": 2, "T": 1.0, "x0": [0.1, 0.2], "k": [0, 0],
                             "edges": [{"from": 2, "to": 1, "w": 2}]})
    assert net.edges == {(1, 0): 2.0} and type(net.edges[(1, 0)]) is float
