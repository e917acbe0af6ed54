//! The privilege matrix: every frame tag sent to every kind of listener —
//! a gateway's data, operator and shard planes and a router's data and
//! operator planes — is either served or refused with `Nack{Malformed}`
//! followed by a closed connection, exactly as each plane's contract says.

use panda_core::{GraphExponential, LocationPolicyGraph, PolicyIndex};
use panda_geo::{CellId, GridMap};
use panda_mobility::UserId;
use panda_net::wire::{decode_frame, encode_to_vec};
use panda_net::{
    Frame, GatewayClient, GatewayConfig, IngestGateway, NackReason, RouterConfig, ShardBackend,
    ShardRouter,
};
use panda_surveillance::ingest::{IngestConfig, IngestPipeline, PendingReport, SequencedReport};
use panda_surveillance::node::ShardNode;
use panda_surveillance::protocol::{LocationReport, PolicyAssignment, ResendRequest};
use panda_surveillance::Server;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn grid() -> GridMap {
    GridMap::new(8, 8, 100.0)
}

fn index() -> Arc<PolicyIndex> {
    Arc::new(PolicyIndex::new(LocationPolicyGraph::partition(
        grid(),
        2,
        2,
    )))
}

fn pending(user: u32) -> PendingReport {
    PendingReport {
        user: UserId(user),
        epoch: 0,
        cell: CellId(user % 64),
        resend: false,
    }
}

/// One frame per tag, client → server tags first, then the server →
/// client tags a server must never accept. Mailbox pushes and the fetch
/// use distinct users, so no cell of the matrix depends on another.
fn every_tag() -> Vec<(&'static str, Frame)> {
    vec![
        ("Submit", Frame::Submit(pending(1))),
        (
            "SubmitBatch",
            Frame::SubmitBatch(vec![pending(2), pending(3)]),
        ),
        (
            "SwitchPolicy",
            Frame::SwitchPolicy(LocationPolicyGraph::partition(grid(), 2, 2)),
        ),
        ("Shutdown", Frame::Shutdown),
        (
            "Report",
            Frame::Report(LocationReport {
                user: UserId(4),
                epoch: 0,
                cell: CellId(4),
                resend: false,
            }),
        ),
        (
            "Assign",
            Frame::Assign(PolicyAssignment {
                user: UserId(900),
                policy: LocationPolicyGraph::partition(grid(), 4, 4),
                eps_per_epoch: 0.5,
                effective_from: 1,
            }),
        ),
        (
            "Resend",
            Frame::Resend(ResendRequest {
                user: UserId(901),
                from: 0,
                to: 2,
                policy: LocationPolicyGraph::partition(grid(), 4, 4),
                eps_per_epoch: 0.5,
            }),
        ),
        (
            "SubmitSequenced",
            Frame::SubmitSequenced(vec![SequencedReport {
                seq: 1 << 40,
                report: pending(5),
                released: false,
            }]),
        ),
        ("Fetch", Frame::Fetch { user: UserId(902) }),
        ("StatsRequest", Frame::StatsRequest),
        ("Ack", Frame::Ack { accepted: 0 }),
        (
            "Nack",
            Frame::Nack {
                reason: NackReason::Backpressure,
                accepted: 0,
            },
        ),
        ("StatsReply", Frame::StatsReply(String::from("x 1\n"))),
    ]
}

/// Reads one reply frame; `None` on EOF or timeout.
fn read_reply(stream: &mut TcpStream) -> Option<Frame> {
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Ok((frame, _)) = decode_frame(&bytes) {
            return Some(frame);
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
        }
    }
}

fn assert_eof(stream: &mut TcpStream, what: &str) {
    let mut rest = Vec::new();
    assert!(
        matches!(stream.read_to_end(&mut rest), Ok(0)),
        "{what}: the connection must close after the reply"
    );
}

/// Sends `frame` on a fresh connection to `addr` and checks the plane's
/// verdict: a served frame gets its reply and leaves the connection open
/// (a `Shutdown` is acked and then closed); a refused one gets
/// `Nack{Malformed}` and then EOF.
fn probe(addr: SocketAddr, plane: &str, name: &str, frame: &Frame, served: bool) {
    let what = format!("{name} on {plane}");
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&encode_to_vec(frame)).unwrap();
    let reply = read_reply(&mut stream);
    if !served {
        assert!(
            matches!(
                reply,
                Some(Frame::Nack {
                    reason: NackReason::Malformed,
                    ..
                })
            ),
            "{what}: expected Nack{{Malformed}}, got {reply:?}"
        );
        assert_eof(&mut stream, &what);
        return;
    }
    let expected = match frame {
        Frame::Submit(_) | Frame::Report(_) => Some(1),
        Frame::SubmitBatch(r) => Some(r.len() as u32),
        Frame::SubmitSequenced(r) => Some(r.len() as u32),
        Frame::StatsRequest => None,
        _ => Some(0),
    };
    match (&reply, expected) {
        (Some(Frame::Ack { accepted }), Some(n)) => {
            assert_eq!(*accepted, n, "{what}: wrong accepted count");
        }
        (Some(Frame::StatsReply(text)), None) => {
            assert!(!text.is_empty(), "{what}: empty exposition");
        }
        _ => panic!("{what}: expected a served reply, got {reply:?}"),
    }
    if matches!(frame, Frame::Shutdown) {
        assert_eof(&mut stream, &what);
        return;
    }
    // Still open: a clean shutdown is acked, then the server closes.
    stream.write_all(&encode_to_vec(&Frame::Shutdown)).unwrap();
    assert!(
        matches!(read_reply(&mut stream), Some(Frame::Ack { accepted: 0 })),
        "{what}: the connection must stay served after a served frame"
    );
    assert_eof(&mut stream, &what);
}

#[test]
fn every_tag_is_served_or_refused_per_plane() {
    use panda_net::wire::tag;
    let pipeline = IngestPipeline::spawn(
        Arc::new(Server::new(grid())),
        index(),
        Arc::new(GraphExponential),
        IngestConfig::default(),
    );
    let gw_data = IngestGateway::bind("127.0.0.1:0", pipeline.handle()).unwrap();
    let gw_operator = IngestGateway::bind_shared(
        "127.0.0.1:0",
        pipeline.handle(),
        GatewayConfig::operator(),
        gw_data.mailbox(),
    )
    .unwrap();
    let gw_shard = IngestGateway::bind_shared(
        "127.0.0.1:0",
        pipeline.handle(),
        GatewayConfig::shard_plane(),
        gw_data.mailbox(),
    )
    .unwrap();

    let nodes: Vec<ShardNode> = (0..2)
        .map(|_| {
            ShardNode::spawn(
                Arc::new(Server::new(grid())),
                index(),
                Arc::new(GraphExponential),
                IngestConfig::default(),
            )
        })
        .collect();
    let shard_gateways: Vec<IngestGateway> = nodes
        .iter()
        .map(|n| {
            IngestGateway::bind_with("127.0.0.1:0", n.handle(), GatewayConfig::shard_plane())
                .unwrap()
        })
        .collect();
    let backends = shard_gateways
        .iter()
        .map(|g| ShardBackend::remote(GatewayClient::connect(g.local_addr()).unwrap()))
        .collect();
    let mut router = ShardRouter::bind("127.0.0.1:0", backends, RouterConfig::default()).unwrap();
    let router_operator = router.bind_operator("127.0.0.1:0").unwrap();

    let data = [
        tag::SUBMIT,
        tag::SUBMIT_BATCH,
        tag::SHUTDOWN,
        tag::REPORT,
        tag::FETCH,
    ];
    let operator = [
        &data[..],
        &[
            tag::SWITCH_POLICY,
            tag::ASSIGN,
            tag::RESEND,
            tag::STATS_REQUEST,
        ],
    ]
    .concat();
    let shard = [&operator[..], &[tag::SUBMIT_SEQUENCED]].concat();
    let planes: [(&str, SocketAddr, &[u8]); 5] = [
        ("gateway data plane", gw_data.local_addr(), &data),
        (
            "gateway operator plane",
            gw_operator.local_addr(),
            &operator,
        ),
        ("gateway shard plane", gw_shard.local_addr(), &shard),
        ("router data plane", router.local_addr(), &data),
        ("router operator plane", router_operator, &operator),
    ];
    let tags = every_tag();
    for (plane, addr, served) in planes {
        for (name, frame) in &tags {
            let t = encode_to_vec(frame)[5];
            probe(addr, plane, name, frame, served.contains(&t));
        }
    }

    router.shutdown();
    for g in shard_gateways {
        g.shutdown();
    }
    for n in nodes {
        n.shutdown();
    }
    gw_data.shutdown();
    gw_operator.shutdown();
    gw_shard.shutdown();
    pipeline.shutdown();
}
