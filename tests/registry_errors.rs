//! Error-path coverage for the registry and session entry points: every
//! documented failure mode surfaces as the matching [`RegistryError`] —
//! never a panic — through each layer (`registry`, `SimSession`, and the
//! `grow_serve` batch service).

use grow::accel::registry::{self, RegistryError};
use grow::accel::PartitionStrategy;
use grow::model::DatasetKey;
use grow::serve::{BatchService, JobError, JobSpec};
use grow::session::SimSession;

fn spec() -> grow::model::DatasetSpec {
    DatasetKey::Cora.spec().scaled_to(300)
}

#[test]
fn unknown_engine_is_an_error_everywhere() {
    let expected = RegistryError::UnknownEngine("npu".into());
    assert_eq!(
        registry::engine_by_name("npu").err(),
        Some(expected.clone())
    );
    assert_eq!(
        registry::canonical_name("npu").err(),
        Some(expected.clone())
    );

    let workload = spec().instantiate(1);
    let prepared = grow::accel::prepare(&workload, PartitionStrategy::None, 4096);
    assert_eq!(
        registry::run_named("npu", &prepared).err(),
        Some(expected.clone())
    );

    let mut session = SimSession::from_spec(spec(), 1);
    assert_eq!(
        session.run("npu", PartitionStrategy::None).err(),
        Some(expected.clone())
    );
    assert_eq!(
        session.prepared_count(),
        0,
        "no preparation spent on an unknown engine"
    );

    let result = BatchService::new().run_one(&JobSpec::new(spec(), 1, "npu"));
    assert_eq!(
        result.outcome.err(),
        Some(JobError::Invalid(expected.clone()))
    );
    // The message names the valid engines, so the error is actionable.
    let message = expected.to_string();
    for name in registry::ENGINE_NAMES {
        assert!(message.contains(name), "{message}");
    }
}

#[test]
fn unknown_key_and_invalid_value_are_reported_not_panicked() {
    let unknown_key = RegistryError::UnknownKey {
        engine: "matraptor",
        key: "runahead".into(),
    };
    assert_eq!(
        registry::engine_from_overrides("matraptor", &[("runahead", "4")]).err(),
        Some(unknown_key.clone())
    );
    let mut session = SimSession::from_spec(spec(), 2);
    assert_eq!(
        session
            .run_with("matraptor", &[("runahead", "4")], PartitionStrategy::None)
            .err(),
        Some(unknown_key.clone())
    );
    let via_batch = BatchService::new()
        .run_one(&JobSpec::new(spec(), 2, "matraptor").with_override("runahead", "4"));
    assert_eq!(
        via_batch.outcome.err(),
        Some(JobError::Invalid(unknown_key))
    );

    let invalid_value = RegistryError::InvalidValue {
        key: "mac_lanes".into(),
        value: "lots".into(),
    };
    assert_eq!(
        registry::engine_from_overrides("gamma", &[("mac_lanes", "lots")]).err(),
        Some(invalid_value.clone())
    );
    let via_batch = BatchService::new()
        .run_one(&JobSpec::new(spec(), 2, "gamma").with_override("mac_lanes", "lots"));
    assert_eq!(
        via_batch.outcome.err(),
        Some(JobError::Invalid(invalid_value))
    );
}

#[test]
fn malformed_override_specs_are_rejected() {
    for bad in ["runahead", "=4", "runahead=", ""] {
        assert_eq!(
            registry::parse_override(bad).err(),
            Some(RegistryError::MalformedOverride { spec: bad.into() }),
            "{bad:?}"
        );
        let result =
            BatchService::new().run_one(&JobSpec::new(spec(), 3, "grow").with_override_spec(bad));
        assert_eq!(
            result.outcome.err(),
            Some(JobError::Invalid(RegistryError::MalformedOverride {
                spec: bad.into()
            })),
            "{bad:?}"
        );
    }
    // Values may contain '='; only the first one splits.
    assert_eq!(
        registry::parse_override("key=a=b").unwrap(),
        ("key".into(), "a=b".into())
    );
}

#[test]
fn unknown_scheduler_is_an_error_everywhere() {
    let expected = RegistryError::UnknownScheduler("bogus".into());
    for engine in registry::ENGINE_NAMES {
        assert_eq!(
            registry::engine_from_overrides(engine, &[("scheduler", "bogus")]).err(),
            Some(expected.clone()),
            "{engine}"
        );
    }

    let mut session = SimSession::from_spec(spec(), 4);
    assert_eq!(
        session
            .run_with("grow", &[("scheduler", "bogus")], PartitionStrategy::None)
            .err(),
        Some(expected.clone())
    );
    assert_eq!(
        session.prepared_count(),
        0,
        "no preparation spent on an unknown scheduler"
    );

    // Through the batch service: the bad job fails alone, the valid
    // scheduler jobs around it still run.
    let mut service = BatchService::new();
    let results = service.run_batch(&[
        JobSpec::new(spec(), 4, "grow").with_override("scheduler", "ws"),
        JobSpec::new(spec(), 4, "grow").with_override("scheduler", "bogus"),
        JobSpec::new(spec(), 4, "grow").with_override("scheduler", "lpt"),
    ]);
    assert!(results[0].outcome.is_ok());
    assert_eq!(results[1].outcome, Err(JobError::Invalid(expected.clone())));
    assert!(results[2].outcome.is_ok(), "later jobs unaffected");
    assert_eq!(service.stats().jobs_failed, 1);
    assert_eq!(service.stats().simulations_run, 2);

    // The message names the valid schedulers, so the error is actionable.
    let message = expected.to_string();
    for name in grow::accel::schedule::SCHEDULER_NAMES {
        assert!(message.contains(name), "{message}");
    }
}

#[test]
fn unknown_exec_model_is_an_error_everywhere() {
    let expected = RegistryError::UnknownExecModel("sideways".into());
    for engine in registry::ENGINE_NAMES {
        assert_eq!(
            registry::engine_from_overrides(engine, &[("exec", "sideways")]).err(),
            Some(expected.clone()),
            "{engine}"
        );
    }

    let mut session = SimSession::from_spec(spec(), 4);
    assert_eq!(
        session
            .run_with("grow", &[("exec", "sideways")], PartitionStrategy::None)
            .err(),
        Some(expected.clone())
    );
    assert_eq!(
        session.prepared_count(),
        0,
        "no preparation spent on an unknown execution model"
    );

    // Through the batch service: the bad job fails alone, the valid
    // exec-model jobs around it still run.
    let mut service = BatchService::new();
    let results = service.run_batch(&[
        JobSpec::new(spec(), 4, "grow").with_override("exec", "e2e"),
        JobSpec::new(spec(), 4, "grow").with_override("exec", "sideways"),
        JobSpec::new(spec(), 4, "grow").with_override("exec", "post_hoc"),
    ]);
    assert!(results[0].outcome.is_ok());
    assert_eq!(results[1].outcome, Err(JobError::Invalid(expected.clone())));
    assert!(results[2].outcome.is_ok(), "later jobs unaffected");

    // The message names the valid models, so the error is actionable.
    let message = expected.to_string();
    for name in grow::accel::exec_model::EXEC_MODEL_NAMES {
        assert!(message.contains(name), "{message}");
    }
}

#[test]
fn shard_rows_is_uniform_across_engines() {
    // Since the plan-module port, `shard_rows=off|auto|N` is a shared key:
    // every engine accepts it, every engine reports identically with it
    // (it is a simulator-throughput knob, not a model parameter), and a
    // bad value surfaces as InvalidValue — not UnknownKey — everywhere.
    let workload = spec().instantiate(9);
    let prepared = grow::accel::prepare(&workload, PartitionStrategy::None, 4096);
    for engine in registry::ENGINE_NAMES {
        let base = registry::run_named(engine, &prepared).unwrap();
        for value in ["off", "auto", "64", "0"] {
            let sharded = registry::engine_from_overrides(engine, &[("shard_rows", value)])
                .unwrap_or_else(|e| panic!("{engine} shard_rows={value}: {e}"))
                .run(&prepared);
            assert_eq!(base, sharded, "{engine} shard_rows={value}");
        }
        assert_eq!(
            registry::engine_from_overrides(engine, &[("shard_rows", "many")]).err(),
            Some(RegistryError::InvalidValue {
                key: "shard_rows".into(),
                value: "many".into(),
            }),
            "{engine}"
        );
    }

    // The shared key flows through the batch service like any other
    // override, and an unknown engine still wins over a bad value.
    let result = BatchService::new()
        .run_one(&JobSpec::new(spec(), 9, "gamma").with_override("shard_rows", "auto"));
    assert!(result.outcome.is_ok());
    assert_eq!(
        registry::engine_from_overrides("npu", &[("shard_rows", "many")]).err(),
        Some(RegistryError::UnknownEngine("npu".into()))
    );
}

#[test]
fn fault_is_uniform_across_engines() {
    // `fault=spec` is a shared key like `shard_rows`: every engine
    // accepts it, a disarmed plan (`off`, or an ordinal that never
    // fires) leaves the report bit-identical to the baseline, and a
    // malformed spec surfaces as InvalidValue{key:"fault"} — not
    // UnknownKey — everywhere.
    let workload = spec().instantiate(11);
    let prepared = grow::accel::prepare(&workload, PartitionStrategy::None, 4096);
    for engine in registry::ENGINE_NAMES {
        let base = registry::run_named(engine, &prepared).unwrap();
        // `off`/`none` and a never-firing ordinal are all report-neutral.
        for value in ["off", "none", "dram:error:9999999"] {
            let faulted = registry::engine_from_overrides(engine, &[("fault", value)])
                .unwrap_or_else(|e| panic!("{engine} fault={value}: {e}"))
                .run(&prepared);
            assert_eq!(base, faulted, "{engine} fault={value}");
        }
        // A full multi-spec plan parses on every engine (validation is
        // engine-independent; firing behaviour is exercised elsewhere).
        assert!(
            registry::engine_from_overrides(engine, &[("fault", "dram:error:1:2+exec:panic:3")])
                .is_ok(),
            "{engine}"
        );
        for bad in [
            "dram:boom",
            "bogus:error",
            "dram",
            "dram:error:0",
            "dram:error:1:2:3",
            "",
        ] {
            assert_eq!(
                registry::engine_from_overrides(engine, &[("fault", bad)]).err(),
                Some(RegistryError::InvalidValue {
                    key: "fault".into(),
                    value: bad.into(),
                }),
                "{engine} fault={bad:?}"
            );
        }
    }

    // Through the batch service: a malformed fault spec fails validation
    // before any simulation runs, on every engine.
    let mut service = BatchService::new();
    let jobs: Vec<JobSpec> = registry::ENGINE_NAMES
        .iter()
        .map(|engine| JobSpec::new(spec(), 11, engine).with_fault("dram:sideways"))
        .collect();
    let results = service.run_batch(&jobs);
    for (result, engine) in results.iter().zip(registry::ENGINE_NAMES) {
        assert_eq!(
            result.outcome.clone().err(),
            Some(JobError::Invalid(RegistryError::InvalidValue {
                key: "fault".into(),
                value: "dram:sideways".into(),
            })),
            "{engine}"
        );
    }
    assert_eq!(service.stats().simulations_run, 0, "validation is phase 1");
}

#[test]
fn zero_pes_is_an_invalid_value_not_a_panic() {
    let expected = RegistryError::InvalidValue {
        key: "pes".into(),
        value: "0".into(),
    };
    assert_eq!(
        registry::engine_from_overrides("grow", &[("pes", "0")]).err(),
        Some(expected.clone())
    );
    let result =
        BatchService::new().run_one(&JobSpec::new(spec(), 5, "grow").with_override("pes", "0"));
    assert_eq!(result.outcome.err(), Some(JobError::Invalid(expected)));
}

#[test]
fn non_positive_or_non_finite_bandwidth_is_an_invalid_value() {
    // Each of these parses as an f64, but a run on it would panic with
    // "bandwidth must be positive" (or divide into NaN cycle counts).
    for value in ["0", "-4", "NaN", "inf"] {
        let expected = RegistryError::InvalidValue {
            key: "dram_gbps".into(),
            value: value.into(),
        };
        for engine in registry::ENGINE_NAMES {
            assert_eq!(
                registry::engine_from_overrides(engine, &[("dram_gbps", value)]).err(),
                Some(expected.clone()),
                "{engine}/dram_gbps={value}"
            );
        }
        // Through the batch service the bad job fails validation alone;
        // its valid neighbor still runs.
        let mut service = BatchService::new();
        let results = service.run_batch(&[
            JobSpec::new(spec(), 5, "gcnax").with_override("dram_gbps", value),
            JobSpec::new(spec(), 5, "gcnax"),
        ]);
        assert_eq!(
            results[0].outcome.clone().err(),
            Some(JobError::Invalid(expected)),
            "dram_gbps={value}"
        );
        assert!(results[1].outcome.is_ok(), "dram_gbps={value}");
        assert_eq!(service.stats().simulations_run, 1, "dram_gbps={value}");
    }
}

#[test]
fn every_error_displays_a_useful_message() {
    let errors: Vec<RegistryError> = vec![
        RegistryError::UnknownEngine("npu".into()),
        RegistryError::UnknownKey {
            engine: "grow",
            key: "warp_size".into(),
        },
        RegistryError::InvalidValue {
            key: "runahead".into(),
            value: "many".into(),
        },
        RegistryError::MalformedOverride {
            spec: "runahead".into(),
        },
        RegistryError::UnknownScheduler("bogus".into()),
        RegistryError::UnknownExecModel("sideways".into()),
    ];
    for e in errors {
        let text = e.to_string();
        assert!(!text.is_empty());
        // std::error::Error is implemented, so the errors compose with ?
        // and error-reporting crates.
        let as_dyn: &dyn std::error::Error = &e;
        assert_eq!(as_dyn.to_string(), text);
    }
}

#[test]
fn hdn_entry_changes_invalidate_without_panicking() {
    let mut session = SimSession::from_spec(spec(), 5);
    let wide = session
        .run("grow", PartitionStrategy::None)
        .expect("registered engine");
    assert_eq!(session.prepared_count(), 1);

    // Shrinking the HDN ID list drops every memoized preparation and
    // re-prepares on demand with the new bound.
    session.set_hdn_id_entries(8);
    assert_eq!(session.prepared_count(), 0);
    let narrow = session
        .run("grow", PartitionStrategy::None)
        .expect("still runs after invalidation");
    assert_eq!(
        wide.mac_ops(),
        narrow.mac_ops(),
        "list length changes movement, not work"
    );
    assert!(
        session
            .get_prepared(PartitionStrategy::None)
            .expect("re-prepared")
            .hdn_lists[0]
            .len()
            <= 8
    );

    // Setting the same value again is a no-op, not an invalidation.
    session.set_hdn_id_entries(8);
    assert_eq!(session.prepared_count(), 1);
}

#[test]
fn batch_jobs_with_distinct_hdn_entries_get_distinct_sessions() {
    let mut service = BatchService::new();
    let results = service.run_batch(&[
        JobSpec::new(spec(), 6, "grow"),
        JobSpec::new(spec(), 6, "grow").with_hdn_id_entries(8),
    ]);
    assert!(results[0].outcome.is_ok() && results[1].outcome.is_ok());
    assert_ne!(results[0].key, results[1].key);
    assert_eq!(service.pooled_sessions(), 2);
    assert_eq!(service.stats().simulations_run, 2);
}
