import json
from dataclasses import asdict, replace
from enum import Enum

import pytest
from hypothesis import given, strategies as st

from repsim import (
    MechanismParams,
    PayoffParams,
    ReputationType,
    ScenarioConfig,
    SelectionPolicy,
    WorkerSpec,
    WorkerType,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
    validate_config,
)
from repsim.model import make_stream
from repsim.scenarios import build_scenario, list_scenarios, make_config


def workers_all(n, worker_type=WorkerType.ALTRUISTIC, availability=1.0):
    return tuple(
        WorkerSpec(worker_id=i, worker_type=worker_type, availability=availability)
        for i in range(n)
    )


def test_select_n_equal_pool_size_rejected_under_reputation_policy():
    config = ScenarioConfig(
        workers=workers_all(5),
        payoffs=PayoffParams(),
        mechanism=MechanismParams(pool_size_N=5, select_n=5),
    )
    diags = validate_config(config)
    assert any("select_n must be < pool_size_N" in d.message for d in diags)
    assert all(d.severity == "error" for d in diags)


def test_select_n_equal_pool_size_allowed_under_fixed_random():
    config = ScenarioConfig(
        workers=workers_all(5),
        payoffs=PayoffParams(),
        mechanism=MechanismParams(
            pool_size_N=5, select_n=5, selection_policy=SelectionPolicy.FIXED_RANDOM
        ),
    )
    assert validate_config(config) == []


def test_zero_availability_rejected():
    workers = workers_all(9)[:-1] + (
        WorkerSpec(worker_id=8, worker_type=WorkerType.ALTRUISTIC, availability=0.0),
    )
    config = ScenarioConfig(
        workers=workers,
        payoffs=PayoffParams(),
        mechanism=MechanismParams(pool_size_N=9, select_n=5),
    )
    diags = validate_config(config)
    assert any(
        d.field == "workers[8].availability" and "must be > 0" in d.message for d in diags
    )


def test_baseline_config_is_clean():
    # N=9, n=5, a=0.1, WBy=1, WCt=0.1: the standard parameterization
    config = build_scenario("S1")
    assert validate_config(config) == []
    assert config.mechanism.select_n == 5
    assert config.payoffs.reward_WBy == 1.0
    assert all(w.aspiration == 0.1 for w in config.workers)


def test_participation_condition_is_warning_not_error():
    config = ScenarioConfig(
        workers=tuple(
            WorkerSpec(worker_id=i, worker_type=WorkerType.RATIONAL, aspiration=2.0)
            for i in range(9)
        ),
        payoffs=PayoffParams(reward_WBy=1.0, task_cost_WCt=0.1),
        mechanism=MechanismParams(pool_size_N=9, select_n=5),
    )
    diags = validate_config(config)
    assert [d.severity for d in diags] == ["warning"]
    assert "participation" in diags[0].message


def test_duplicate_worker_ids_rejected():
    workers = workers_all(9)[:-1] + (
        WorkerSpec(worker_id=0, worker_type=WorkerType.ALTRUISTIC),
    )
    config = ScenarioConfig(
        workers=workers,
        payoffs=PayoffParams(),
        mechanism=MechanismParams(pool_size_N=9, select_n=5),
    )
    assert any("dense" in d.message for d in validate_config(config))


def test_audit_prob_bounds():
    config = ScenarioConfig(
        workers=workers_all(9),
        payoffs=PayoffParams(),
        mechanism=MechanismParams(
            pool_size_N=9, select_n=5, audit_prob_initial=0.005, audit_prob_min=0.01
        ),
    )
    assert any(
        "audit_prob_initial must be >= audit_prob_min" in d.message
        for d in validate_config(config)
    )


def test_config_round_trip_identity():
    config = make_config(
        [(1, WorkerType.RATIONAL, 1.0), (8, WorkerType.MALICIOUS, 0.5)],
        reputation_type=ReputationType.EXPONENTIAL,
        audit_prob_initial=1.0,
        base_seed=987654321,
    )
    assert config_from_dict(config_to_dict(config)) == config
    # and through an actual JSON file
    text = json.dumps(config_to_dict(config))
    assert config_from_dict(json.loads(text)) == config


def asdict_reference(config):
    """The config dict as ``dataclasses.asdict`` builds it, enums by name."""
    d = asdict(config, dict_factory=lambda items: {
        k: v.value if isinstance(v, Enum) else v for k, v in items
    })
    d["workers"] = list(d["workers"])
    return d


def test_config_to_dict_matches_asdict_on_presets():
    for preset in list_scenarios():
        for reputation in ReputationType:
            config = build_scenario(preset.name, reputation_type=reputation)
            assert repr(config_to_dict(config)) == repr(asdict_reference(config)), preset.name


NUMBERS = st.integers(-3, 3) | st.floats()
CONFIGS = st.builds(
    ScenarioConfig,
    workers=st.lists(st.builds(
        WorkerSpec, worker_id=st.integers(-1, 9), worker_type=st.sampled_from(WorkerType),
        availability=NUMBERS, aspiration=NUMBERS, initial_cheat_prob=NUMBERS,
        learning_rate=st.none() | NUMBERS,
    ), max_size=4).map(tuple),
    payoffs=st.builds(PayoffParams, NUMBERS, NUMBERS, NUMBERS),
    mechanism=st.builds(
        MechanismParams, pool_size_N=st.integers(0, 9), select_n=st.integers(0, 9),
        audit_prob_initial=NUMBERS, tolerance_tau=NUMBERS,
        reputation_type=st.sampled_from(ReputationType),
        selection_policy=st.sampled_from(SelectionPolicy),
    ),
    num_instantiations=st.integers(), max_rounds=st.integers(),
    base_seed=st.integers(0, 2**64),
)


@given(CONFIGS)
def test_config_to_dict_matches_asdict(config):
    assert repr(config_to_dict(config)) == repr(asdict_reference(config))


def test_config_file_round_trip(tmp_path):
    config = build_scenario("S5", reputation_type="boinc")
    path = tmp_path / "scenario.json"
    save_config(config, path)
    assert load_config(path) == config


def test_learning_rate_override_round_trips(tmp_path):
    base = build_scenario("S4")
    workers = (WorkerSpec(0, WorkerType.RATIONAL, learning_rate=0.2),) + base.workers[1:]
    config = ScenarioConfig(workers=workers, payoffs=base.payoffs, mechanism=base.mechanism)
    assert validate_config(config) == []
    path = tmp_path / "override.json"
    save_config(config, path)
    loaded = load_config(path)
    assert loaded == config
    assert loaded.workers[0].learning_rate == 0.2


def test_unknown_field_rejected():
    d = config_to_dict(build_scenario("S1"))
    d["mechanism"]["bogus"] = 1
    with pytest.raises(ValueError, match="bogus"):
        config_from_dict(d)


def test_same_seed_same_draws():
    a = make_stream(123456)
    b = make_stream(123456)
    assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]


def test_seed_for_is_base_seed_plus_k():
    config = build_scenario("S1", base_seed=1000)
    assert [config.seed_for(k) for k in range(3)] == [1000, 1001, 1002]


FLOAT_FIELDS = [
    ("mechanism", "audit_prob_initial"),
    ("mechanism", "audit_prob_min"),
    ("mechanism", "tolerance_tau"),
    ("mechanism", "master_learning_rate_alpha_m"),
    ("mechanism", "worker_learning_rate_alpha_w"),
    ("mechanism", "exponential_base_epsilon"),
    ("payoffs", "punishment_WPc"),
    ("payoffs", "task_cost_WCt"),
    ("payoffs", "reward_WBy"),
    ("workers[3]", "availability"),
    ("workers[3]", "aspiration"),
    ("workers[3]", "initial_cheat_prob"),
    ("workers[3]", "learning_rate"),
]


@pytest.mark.parametrize("section, name", FLOAT_FIELDS)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_float_field_is_one_error(section, name, bad):
    config = build_scenario("S5")
    if section == "mechanism":
        config = replace(config, mechanism=replace(config.mechanism, **{name: bad}))
    elif section == "payoffs":
        config = replace(config, payoffs=replace(config.payoffs, **{name: bad}))
    else:
        workers = list(config.workers)
        workers[3] = replace(workers[3], **{name: bad})
        config = replace(config, workers=tuple(workers))
    errors = [d for d in validate_config(config) if d.severity == "error"]
    assert [(d.field, d.message) for d in errors] == [
        (f"{section}.{name}", f"{name} must be finite")
    ]


def test_every_float_field_is_checked_for_finiteness():
    from dataclasses import fields

    declared = {
        (section, f.name)
        for section, cls in (("mechanism", MechanismParams), ("payoffs", PayoffParams),
                             ("workers[3]", WorkerSpec))
        for f in fields(cls)
        if "float" in str(f.type)
    }
    assert declared == set(FLOAT_FIELDS)


INT_FIELDS = [
    ("config", "num_instantiations"),
    ("config", "max_rounds"),
    ("config", "post_convergence_horizon"),
    ("config", "base_seed"),
    ("mechanism", "pool_size_N"),
    ("mechanism", "select_n"),
    ("worker", "worker_id"),
]


def _with_field(section, name, value):
    d = config_to_dict(build_scenario("S5"))
    node = {"config": d, "mechanism": d["mechanism"], "payoffs": d["payoffs"]}.get(section)
    if node is None:  # a worker field, set on worker 3
        node = d["workers"][3]
    node[name] = value
    return d


@pytest.mark.parametrize("section, name", INT_FIELDS)
@pytest.mark.parametrize("bad", [True, False, 4.9, -0.5, float("inf"), "5", "abc", None, [5]])
def test_int_field_rejects_non_integers(section, name, bad):
    with pytest.raises(ValueError, match=rf"^invalid {section} field {name}: "):
        config_from_dict(_with_field(section, name, bad))


@pytest.mark.parametrize("section, name", INT_FIELDS)
def test_int_field_accepts_integral_float(section, name):
    d = _with_field(section, name, 5)
    assert config_from_dict(_with_field(section, name, 5.0)) == config_from_dict(d)


@pytest.mark.parametrize("section, name", [
    ("worker" if s.startswith("workers") else s, n) for s, n in FLOAT_FIELDS
])
@pytest.mark.parametrize("bad", [True, "0.5", "abc"])
def test_float_field_rejects_bools_and_strings(section, name, bad):
    with pytest.raises(ValueError, match=rf"^invalid {section} field {name}: "):
        config_from_dict(_with_field(section, name, bad))


@pytest.mark.parametrize("name", ["reputation_type", "selection_policy"])
def test_enum_field_error_names_the_field(name):
    with pytest.raises(ValueError, match=rf"^invalid mechanism field {name}: "):
        config_from_dict(_with_field("mechanism", name, "bogus"))


def test_every_int_field_is_checked():
    from dataclasses import fields

    declared = {
        (section, f.name)
        for section, cls in (("config", ScenarioConfig), ("mechanism", MechanismParams),
                             ("payoffs", PayoffParams), ("worker", WorkerSpec))
        for f in fields(cls)
        if f.type == "int"
    }
    assert declared == set(INT_FIELDS)
