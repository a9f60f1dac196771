//! The README's batched-join example, kept compiling and correct.

use ccindex::prelude::*;

#[test]
fn readme_batched_join_example() {
    let orders = TableBuilder::new("orders")
        .int_column("cust", [5i64, 1, 2, 5, 9])
        .build()
        .unwrap();
    let customers = TableBuilder::new("customers")
        .int_column("id", [1i64, 2, 3, 5, 5])
        .build()
        .unwrap();

    let cust_id = customers.column("id").unwrap();
    let cust_rids = RidList::for_column(cust_id);
    let css = build_index(IndexKind::FullCss, cust_rids.keys());

    let cust = orders.column("cust").unwrap();
    let every_order: Vec<u32> = (0..cust.len() as u32).collect();
    let joined = indexed_nested_loop_join(
        cust,
        &every_order, // or the RIDs a selection produced
        cust_id,
        &cust_rids,
        css.as_ref(),
        DEFAULT_BATCH_LANES, // interleaved probes per index descent
        1,                   // worker threads (0 = one per core)
    );
    assert_eq!(joined.len(), 6); // each 5 matches two customer rows; 1 and 2 one each; 9 none
}
