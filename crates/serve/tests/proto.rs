//! Wire-protocol conformance: every request and response shape
//! round-trips through its one-line JSON spelling, and a live server
//! answers malformed input with a typed error line — never a panic,
//! never a dropped connection.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use pp_majority::ThreeState;
use pp_serve::{Metrics, ProtoError, Request, Response, ServerHandle, Service, ServiceConfig};

#[test]
fn every_request_round_trips() {
    let requests = [
        Request::Ingest {
            opinion: 7,
            count: 12_345,
        },
        Request::Census,
        Request::Plurality,
        Request::Status,
        Request::Metrics,
        Request::Checkpoint,
        Request::Step { time: 2.5 },
        Request::Shutdown,
    ];
    for req in requests {
        let line = req.to_json();
        let back = Request::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(back, req, "{line}");
    }
}

#[test]
fn every_response_round_trips() {
    let responses = [
        Response::Ingested {
            opinion: 2,
            count: 500,
            population: 10_500,
        },
        Response::Census {
            t: 42.125,
            population: 10_500,
            census: vec![(1, 7_000), (2, 3_000)],
        },
        Response::Census {
            t: 0.0,
            population: 2,
            census: vec![],
        },
        Response::Plurality {
            t: 1.5,
            opinion: Some(1),
            frac: 0.625,
            exact: false,
        },
        Response::Plurality {
            t: 0.0,
            opinion: None,
            frac: 0.0,
            exact: false,
        },
        Response::Status {
            t: 10.0,
            population: u64::MAX - 5,
            interactions: u64::MAX - 9,
            consensus: true,
            output: Some(1),
            time_in_consensus: 0.75,
            ingested: 600,
        },
        Response::Metrics(Metrics {
            uptime_s: 3.5,
            requests: 100,
            errors: 2,
            ingest_requests: 5,
            ingested_agents: 2_500,
            ingest_rate: 714.2857142857143,
            interactions: 123_456_789,
            interactions_rate: 35_273_368.25,
            batches: 4_321,
            segments: 17,
            threads: 8,
            checkpoints: 3,
            checkpoint_mean_ms: 0.875,
        }),
        Response::Checkpointed {
            path: "/tmp/ppd \"weird\" path.ckpt".to_string(),
            t: 12.5,
        },
        Response::Stepped { t: 5.0 },
        Response::ShutDown,
        Response::Error {
            error: "unknown cmd \"bogus\"\nwith a newline".to_string(),
        },
    ];
    for resp in responses {
        let line = resp.to_json();
        assert!(!line.contains('\n'), "responses must be one line: {line}");
        let back = Response::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(back, resp, "{line}");
    }
}

/// NaN cannot travel as a JSON number; the wire spelling is `null` and
/// the client reads it back as NaN (NaN != NaN, so this one is checked
/// by hand rather than through `PartialEq`).
#[test]
fn nan_time_in_consensus_travels_as_null() {
    let resp = Response::Status {
        t: 0.0,
        population: 100,
        interactions: 0,
        consensus: false,
        output: None,
        time_in_consensus: f64::NAN,
        ingested: 0,
    };
    let line = resp.to_json();
    assert!(line.contains("\"time_in_consensus\":null"), "{line}");
    let Response::Status {
        time_in_consensus, ..
    } = Response::parse(&line).expect("parse")
    else {
        panic!("wrong shape")
    };
    assert!(time_in_consensus.is_nan());
}

#[test]
fn malformed_requests_are_typed_errors() {
    let bad = [
        "",
        "not json",
        "42",
        "[]",
        "{\"cmd\":\"frobnicate\"}",
        "{\"opinion\":1}",
        "{\"cmd\":\"ingest\"}",
        "{\"cmd\":\"ingest\",\"opinion\":1}",
        "{\"cmd\":\"ingest\",\"opinion\":1,\"count\":0}",
        "{\"cmd\":\"ingest\",\"opinion\":-1,\"count\":5}",
        "{\"cmd\":\"ingest\",\"opinion\":1.5,\"count\":5}",
        "{\"cmd\":\"step\"}",
        "{\"cmd\":\"step\",\"time\":0}",
        "{\"cmd\":\"step\",\"time\":-1}",
        "{\"cmd\":\"step\",\"time\":null}",
        "{\"cmd\":42}",
    ];
    for line in bad {
        let err = Request::parse(line);
        assert!(matches!(err, Err(ProtoError(_))), "{line:?} -> {err:?}");
    }
}

/// A live server must answer garbage with an error line and keep the
/// connection serving: the hard protocol promise is that no input
/// drops the socket or kills the daemon.
#[test]
fn server_answers_garbage_with_error_lines_and_keeps_serving() {
    let svc = Service::spawn(
        ThreeState,
        ServiceConfig {
            initial: vec![0, 700, 300],
            lockstep: true,
            ..ServiceConfig::default()
        },
    )
    .expect("spawn service");
    let server = ServerHandle::bind("127.0.0.1:0", &svc, 2).expect("bind");
    let addr = server.addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut ask = |line: &str| -> Response {
        writeln!(writer, "{line}").expect("write");
        writer.flush().expect("flush");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read");
        assert!(resp.ends_with('\n'), "unterminated response for {line:?}");
        Response::parse(&resp).unwrap_or_else(|e| panic!("{resp}: {e}"))
    };

    for garbage in [
        "not json at all",
        "{\"cmd\":\"nope\"}",
        "{\"cmd\":\"ingest\",\"opinion\":99,\"count\":5}",
        "{broken",
        "\"just a string\"",
    ] {
        let resp = ask(garbage);
        assert!(
            matches!(resp, Response::Error { .. }),
            "{garbage:?} -> {resp:?}"
        );
    }

    // The same connection still serves real requests afterwards.
    let resp = ask("{\"cmd\":\"census\"}");
    let Response::Census { population, .. } = resp else {
        panic!("census after garbage failed: {resp:?}")
    };
    assert_eq!(population, 1_000);

    let resp = ask("{\"cmd\":\"metrics\"}");
    let Response::Metrics(m) = resp else {
        panic!("metrics failed: {resp:?}")
    };
    assert_eq!(m.errors, 5, "every garbage line counts as one error");
    assert_eq!(m.requests, 7);

    assert_eq!(ask("{\"cmd\":\"shutdown\"}"), Response::ShutDown);
    server.join();
    svc.join();
}

/// An ingest that would overflow the `u64` population is refused with an
/// error line and changes nothing: not the population, not `ingested`.
#[test]
fn overflowing_ingest_is_refused_and_changes_nothing() {
    let svc = Service::spawn(
        ThreeState,
        ServiceConfig {
            initial: vec![0, 3_000, 2_000],
            lockstep: true,
            ..ServiceConfig::default()
        },
    )
    .expect("spawn service");
    let server = ServerHandle::bind("127.0.0.1:0", &svc, 1).expect("bind");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut ask = |line: &str| -> Response {
        writeln!(writer, "{line}").expect("write");
        writer.flush().expect("flush");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read");
        Response::parse(&resp).unwrap_or_else(|e| panic!("{resp}: {e}"))
    };
    let population_and_ingested = |resp: Response| match resp {
        Response::Status {
            population,
            ingested,
            ..
        } => (population, ingested),
        other => panic!("status failed: {other:?}"),
    };

    let resp = ask("{\"cmd\":\"ingest\",\"opinion\":1,\"count\":18446744073709551615}");
    assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
    assert_eq!(
        population_and_ingested(ask("{\"cmd\":\"status\"}")),
        (5_000, 0)
    );

    // One agent short of the limit still fits; one more does not.
    let fits = u64::MAX - 5_000;
    let resp = ask(&format!(
        "{{\"cmd\":\"ingest\",\"opinion\":2,\"count\":{}}}",
        fits + 1
    ));
    assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
    let resp = ask(&format!(
        "{{\"cmd\":\"ingest\",\"opinion\":2,\"count\":{fits}}}"
    ));
    assert_eq!(
        resp,
        Response::Ingested {
            opinion: 2,
            count: fits,
            population: u64::MAX
        }
    );
    assert_eq!(
        population_and_ingested(ask("{\"cmd\":\"status\"}")),
        (u64::MAX, fits)
    );

    assert_eq!(ask("{\"cmd\":\"shutdown\"}"), Response::ShutDown);
    server.join();
    svc.join();
}
