//! Property tests for the wire protocol: every request/response variant
//! round-trips through encode → decode on adversarial payloads —
//! embedded newlines, quotes, backslashes, control characters, and
//! non-ASCII text — and every encoded message stays a single line (the
//! framing invariant).

use folearn::TypeMode;
use folearn_logic::vm::EvalEngine;
use folearn_server::proto::{
    Json, Request, Response, SolveOutcome, SolverSpec, TraceContext, WireExample,
    WireHypothesis, WireProvenance,
};
use proptest::collection;
use proptest::prelude::*;

/// Characters chosen to stress the codec: framing characters, escape
/// characters, ASCII/Unicode controls, multi-byte and astral symbols.
const PALETTE: &[char] = &[
    'a', 'Z', '7', ' ', '_', '\n', '\r', '\t', '"', '\\', '/', '{', '}', '[', ']', ':', ',',
    '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é', 'λ', '中', '\u{2028}', '\u{2029}',
    '🦀', '𝔽',
];

fn nasty_string() -> impl Strategy<Value = String> {
    collection::vec(0usize..PALETTE.len(), 0..16)
        .prop_map(|idx| idx.into_iter().map(|i| PALETTE[i]).collect())
}

fn examples_strategy() -> impl Strategy<Value = Vec<WireExample>> {
    collection::vec(
        (collection::vec(0u32..50, 1..4), 0u32..2),
        1..6,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(tuple, l)| WireExample {
                tuple,
                label: l == 1,
            })
            .collect()
    })
}

fn solver_strategy() -> impl Strategy<Value = SolverSpec> {
    (0usize..5, 1usize..4, 1u32..4, 0u32..4).prop_map(|(kind, r, cap, p)| {
        let engine = if p & 2 == 2 {
            EvalEngine::Vm
        } else {
            EvalEngine::TreeWalk
        };
        match kind {
            0 => SolverSpec::Nd,
            1 => SolverSpec::Brute {
                mode: TypeMode::Global,
                threads: None,
                prune: p & 1 == 1,
                engine,
            },
            2 => SolverSpec::Brute {
                mode: TypeMode::Local { r },
                threads: Some(r),
                prune: p & 1 == 1,
                engine,
            },
            3 => SolverSpec::Brute {
                mode: TypeMode::GlobalCounting { cap },
                threads: Some(0),
                prune: p & 1 == 1,
                engine,
            },
            _ => SolverSpec::Brute {
                mode: TypeMode::LocalCounting { r, cap },
                threads: Some(17),
                prune: p & 1 == 1,
                engine,
            },
        }
    })
}

/// Optional provenance (the router-attached "who answered" field):
/// absent, or a backend string from the nasty palette with a replica
/// rank and hedged flag.
fn provenance_strategy() -> impl Strategy<Value = Option<WireProvenance>> {
    (0u32..2, nasty_string(), 0usize..4, 0u32..2).prop_map(|(some, backend, replica, hedged)| {
        (some == 1).then_some(WireProvenance {
            backend,
            replica,
            hedged: hedged == 1,
        })
    })
}

/// Optional trace context (the distributed-tracing parent pointer):
/// absent, or a `(trace_id, parent)` pair over the full u64 range.
fn trace_strategy() -> impl Strategy<Value = Option<TraceContext>> {
    (0u32..2, 0u64..=u64::MAX, 0u64..=u64::MAX).prop_map(|(some, trace_id, parent)| {
        (some == 1).then_some(TraceContext { trace_id, parent })
    })
}

fn assert_request_round_trip(req: &Request) -> Result<(), TestCaseError> {
    let line = req.encode();
    prop_assert!(
        !line.contains('\n') && !line.contains('\r'),
        "framing: encoded request must be one line, got {line:?}"
    );
    let back = Request::decode(&line)
        .map_err(|e| TestCaseError::fail(format!("decode failed on {line:?}: {e}")))?;
    prop_assert_eq!(&back, req);
    Ok(())
}

fn assert_response_round_trip(resp: &Response) -> Result<(), TestCaseError> {
    let line = resp.encode();
    prop_assert!(
        !line.contains('\n') && !line.contains('\r'),
        "framing: encoded response must be one line, got {line:?}"
    );
    let back = Response::decode(&line)
        .map_err(|e| TestCaseError::fail(format!("decode failed on {line:?}: {e}")))?;
    prop_assert_eq!(&back, resp);
    Ok(())
}

proptest! {
    #[test]
    fn register_round_trips_any_text(text in nasty_string()) {
        assert_request_round_trip(&Request::Register { graph_text: text })?;
    }

    #[test]
    fn solve_round_trips(
        structure in 0u64..=u64::MAX,
        examples in examples_strategy(),
        ell in 0usize..5,
        q in 0usize..5,
        eps_mil in 0u32..=1000,
        solver in solver_strategy(),
        trace in trace_strategy(),
    ) {
        assert_request_round_trip(&Request::Solve {
            structure,
            examples,
            ell,
            q,
            epsilon: f64::from(eps_mil) / 1000.0,
            solver,
            trace,
        })?;
    }

    #[test]
    fn evaluate_round_trips(
        structure in 0u64..=u64::MAX,
        hypothesis in 0u64..=u64::MAX,
        tuples in collection::vec(collection::vec(0u32..100, 0..4), 0..5),
        labelled in 0u32..2,
        labels in collection::vec(0u32..2, 0..5),
    ) {
        let labels = (labelled == 1)
            .then(|| labels.into_iter().map(|l| l == 1).collect());
        assert_request_round_trip(&Request::Evaluate {
            structure,
            hypothesis,
            tuples,
            labels,
        })?;
    }

    #[test]
    fn modelcheck_round_trips_any_formula(
        structure in 0u64..=u64::MAX,
        formula in nasty_string(),
        vm in 0u32..2,
        trace in trace_strategy(),
    ) {
        let engine = if vm == 1 { EvalEngine::Vm } else { EvalEngine::TreeWalk };
        assert_request_round_trip(&Request::ModelCheck { structure, formula, engine, trace })?;
    }

    #[test]
    fn bare_requests_round_trip(kind in 0usize..5) {
        let req = match kind {
            0 => Request::Ping,
            1 => Request::Stats,
            2 => Request::Inventory { hypotheses: true },
            3 => Request::Inventory { hypotheses: false },
            _ => Request::Shutdown,
        };
        assert_request_round_trip(&req)?;
    }

    /// A full `inventory` keeps the wire line it always had; only the
    /// structures-only form carries the field, and the field must be a
    /// boolean.
    #[test]
    fn inventory_field_is_sent_only_when_false(junk in nasty_string(), n in 0u32..1000) {
        prop_assert_eq!(
            Request::Inventory { hypotheses: true }.encode(),
            r#"{"op": "inventory"}"#
        );
        prop_assert_eq!(
            Request::Inventory { hypotheses: false }.encode(),
            r#"{"op": "inventory", "hypotheses": false}"#
        );
        prop_assert_eq!(
            Request::decode(r#"{"op":"inventory","hypotheses":true}"#),
            Ok(Request::Inventory { hypotheses: true })
        );
        prop_assert_eq!(Request::Inventory { hypotheses: false }.op(), "inventory");
        for bad in [
            Json::Str(junk),
            Json::int(n as usize),
            Json::Null,
            Json::Arr(vec![Json::Bool(false)]),
        ] {
            let line = Json::obj([("op", Json::str("inventory")), ("hypotheses", bad)]).render();
            prop_assert!(Request::decode(&line).is_err(), "{} decoded", line);
        }
    }

    #[test]
    fn inventory_round_trips(
        structures in collection::vec(0u64..=u64::MAX, 0..8),
        bindings in collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 0..8),
    ) {
        assert_response_round_trip(&Response::Inventory {
            structures,
            hypotheses: bindings
                .into_iter()
                .map(|(id, structure)| folearn_server::proto::WireBinding { id, structure })
                .collect(),
        })?;
    }

    #[test]
    fn solved_round_trips(
        cached in 0u32..2,
        err_mil in 0u32..=1000,
        work in 0usize..100000,
        solver in nasty_string(),
        id in 0u64..=u64::MAX,
        params in collection::vec(0u32..100, 0..4),
        q in 0usize..5,
        mode in nasty_string(),
        types in collection::vec(0u32..10000, 0..6),
        type_keys in collection::vec(0u64..=u64::MAX, 0..6),
        describe in nasty_string(),
        with_trace in 0u32..2,
        trace_name in nasty_string(),
        trace_ns in 0u64..(1u64 << 53),
        provenance in provenance_strategy(),
    ) {
        // The trace field carries an arbitrary JSON span tree; exercise
        // both its absence and a representative stitched value: a router
        // root with provenance meta over a replayed backend subtree.
        let trace = (with_trace == 1).then(|| {
            Json::obj([
                ("span", Json::Str(trace_name)),
                ("ns", Json::Num(trace_ns as f64)),
                ("meta", Json::obj([
                    ("backend", Json::str("127.0.0.1:7070")),
                    ("kind", Json::str("hedge")),
                    ("outcome", Json::str("won")),
                ])),
                ("children", Json::Arr(vec![Json::obj([
                    ("span", Json::str("server.solve")),
                    ("ns", Json::int(7)),
                    ("meta", Json::obj([
                        ("replayed", Json::Bool(true)),
                        ("replay_age_ms", Json::int(12)),
                    ])),
                ])])),
            ])
        });
        assert_response_round_trip(&Response::Solved(SolveOutcome {
            cached: cached == 1,
            error: f64::from(err_mil) / 1000.0,
            work,
            solver,
            hypothesis: WireHypothesis { id, params, q, mode, types, type_keys, describe },
            trace,
            provenance,
        }))?;
    }

    #[test]
    fn registered_and_scalar_responses_round_trip(
        structure in 0u64..=u64::MAX,
        vertices in 0usize..100000,
        edges in 0usize..100000,
        flag in 0u32..2,
        text in nasty_string(),
        with_replicas in 0u32..2,
        replicas in collection::vec(nasty_string(), 0..4),
        with_code in 0u32..2,
        code in nasty_string(),
        provenance in provenance_strategy(),
    ) {
        assert_response_round_trip(&Response::Pong)?;
        // The register-with-replicas ack: a plain server sends None, the
        // router acks with the backend list (possibly empty on total
        // registration failure of the tail replicas).
        assert_response_round_trip(&Response::Registered {
            structure,
            vertices,
            edges,
            fresh: flag == 1,
            replicas: (with_replicas == 1).then_some(replicas),
        })?;
        assert_response_round_trip(&Response::Truth {
            holds: flag == 1,
            provenance,
        })?;
        assert_response_round_trip(&Response::Error {
            message: text.clone(),
            code: (with_code == 1).then_some(code),
        })?;
        assert_response_round_trip(&Response::Bye { reason: text })?;
    }

    #[test]
    fn predictions_round_trip(
        labels in collection::vec(0u32..2, 0..8),
        with_error in 0u32..2,
        err_mil in 0u32..=1000,
        provenance in provenance_strategy(),
    ) {
        assert_response_round_trip(&Response::Predictions {
            labels: labels.into_iter().map(|l| l == 1).collect(),
            error: (with_error == 1).then(|| f64::from(err_mil) / 1000.0),
            provenance,
        })?;
    }

    #[test]
    fn stats_round_trips_nested_json(
        keys in collection::vec(0usize..PALETTE.len(), 0..6),
        nums in collection::vec(0u32..1000000, 0..6),
        text in nasty_string(),
    ) {
        // A stats payload with nasty keys, nested objects, and arrays.
        let pairs: Vec<(String, Json)> = keys
            .iter()
            .zip(&nums)
            .map(|(&k, &n)| (PALETTE[k].to_string(), Json::int(n as usize)))
            .collect();
        let data = Json::Obj(vec![
            ("inner".to_string(), Json::Obj(pairs)),
            (
                "arr".to_string(),
                Json::Arr(nums.iter().map(|&n| Json::int(n as usize)).collect()),
            ),
            ("text".to_string(), Json::str(text.clone())),
            ("null".to_string(), Json::Null),
        ]);
        assert_response_round_trip(&Response::Stats { data })?;

        // The router's aggregated-stats envelope: identity fields, a
        // wire-form histogram (hex-string counters), and per-backend
        // rows including an unreachable node's error row.
        let aggregated = Json::obj([
            ("role", Json::str("router")),
            ("uptime_ms", Json::int(nums.first().copied().unwrap_or(0) as usize)),
            ("cluster", Json::obj([
                ("backends_total", Json::int(3)),
                ("backends_live", Json::int(2)),
                ("hist", Json::obj([
                    ("count", Json::str("0000000000000003")),
                    ("total", Json::str("00000000000000ff")),
                    ("max", Json::str("0000000000000080")),
                    ("buckets", Json::Arr(vec![Json::int(1), Json::int(2)])),
                ])),
                ("nodes", Json::Arr(vec![
                    Json::obj([
                        ("addr", Json::str("127.0.0.1:1")),
                        ("live", Json::Bool(true)),
                    ]),
                    Json::obj([
                        ("addr", Json::str("127.0.0.1:2")),
                        ("live", Json::Bool(false)),
                        ("error", Json::str(text)),
                    ]),
                ])),
            ])),
        ]);
        assert_response_round_trip(&Response::Stats { data: aggregated })?;
    }
}
