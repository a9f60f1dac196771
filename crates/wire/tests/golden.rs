//! Golden wire bytes: one `RunSpec` frame and one `ExecuteBatch` frame,
//! encoded whole (header, CRC and payload) and compared byte for byte
//! against hex recorded from an earlier build. A change to how a query
//! or a request is encoded fails here, not on a peer running the other
//! build.

use ccindex_wire::{read_request, write_request, ShardRequest, Spec, VERSION};
use mmdb::Request as Req;
use mmdb::{between, eq, on, sum, ExecOptions, IndexKind};

fn spec() -> Spec {
    Spec {
        table: "sales".into(),
        filters: vec![eq("day", "mon"), between("amount", 20, 50)],
        join: Some(("customers".into(), on("cust", "id"))),
        group: Some(("region".into(), sum("amount"))),
        forced_kind: Some(IndexKind::FullCss),
        exec: Some(ExecOptions {
            threads: 2,
            lanes: 8,
            shards: 1,
        }),
    }
}

fn frame(req: &ShardRequest) -> String {
    let mut bytes = Vec::new();
    write_request(&mut bytes, "golden", req).expect("in-memory write");
    let back = read_request(&mut bytes.as_slice(), "golden").expect("decodes");
    assert_eq!(&back, req, "round trip");
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const RUN_SPEC: &str = concat!(
    "4343575803000000000088000000ce7c07de0a0500000073616c657302000000",
    "030000006461790001030000006d6f6e06000000616d6f756e74010014000000",
    "000000000032000000000000000109000000637573746f6d6572730400000063",
    "7573740200000069640106000000726567696f6e0106000000616d6f756e7401",
    "0501020000000000000008000000000000000100000000000000",
);

const EXECUTE_BATCH: &str = concat!(
    "43435758030000000000de0000005d1ec3bd0b04000000000500000073616c65",
    "730400000063757374000700000000000000010500000073616c657306000000",
    "616d6f756e74000a0000000000000001010000007a020500000073616c657302",
    "000000030000006461790001030000006d6f6e06000000616d6f756e74010014",
    "000000000000000032000000000000000109000000637573746f6d6572730400",
    "0000637573740200000069640106000000726567696f6e0106000000616d6f75",
    "6e74010501020000000000000008000000000000000100000000000000020600",
    "00006f72646572730000000000000000",
);

#[test]
fn run_spec_frame_is_byte_stable() {
    assert_eq!(VERSION, 3);
    assert_eq!(frame(&ShardRequest::RunSpec { spec: spec() }), RUN_SPEC);
}

#[test]
fn execute_batch_frame_is_byte_stable() {
    let requests = vec![
        Req::Point {
            table: "sales".into(),
            column: "cust".into(),
            value: 7i64.into(),
        },
        Req::Range {
            table: "sales".into(),
            column: "amount".into(),
            lo: 10i64.into(),
            hi: "z".into(),
        },
        Req::Query(spec()),
        Req::Query(Spec {
            table: "orders".into(),
            ..Spec::default()
        }),
    ];
    assert_eq!(
        frame(&ShardRequest::ExecuteBatch { requests }),
        EXECUTE_BATCH
    );
}
