//! Mirror of README.md's "Parallel execution" example — kept as a real
//! test so the README cannot silently rot. Update both together.

use ccindex::prelude::*;

fn demo() -> Result<(), MmdbError> {
    let mut db = Database::new();
    db.register(
        TableBuilder::new("sales")
            .int_column("cust", [1, 2, 1, 3])
            .int_column("amount", [10, 40, 25, 99])
            .build()?,
    )?;
    db.create_index("sales", "amount", IndexKind::FullCss)?;

    // Catalog-wide: every query compiled from now on partitions its
    // equality/range/join/group stages across 8 workers.
    db.set_exec_options(ExecOptions {
        threads: 8,
        lanes: 8,
        ..ExecOptions::default()
    });
    let plan = db
        .query("sales")
        .filter(between("amount", 20, 100))
        .group_by("cust", sum("amount"))
        .plan()?;
    assert!(plan.explain().contains("[x8 threads]")); // inspectable
    let groups = plan.execute(&db)?.groups().to_vec(); // same rows as threads = 1
    assert_eq!(groups.len(), 3);

    // Or per query, leaving the catalog sequential.
    db.set_exec_options(ExecOptions::default());
    let same = db
        .query("sales")
        .filter(between("amount", 20, 100))
        .group_by("cust", sum("amount"))
        .exec(ExecOptions::threads(8))
        .run()?;
    assert_eq!(same.groups(), groups);

    // A raw probe batch partitions the same way: contiguous chunks, one
    // per worker, each answered by an interleaved descent.
    let keys: Vec<u32> = (0..100_000).collect();
    let css = FullCssTree::<u32, 16>::build(&keys);
    let probes: Vec<u32> = (0..10_000u32).map(|i| i * 31 % 120_000).collect();
    let par = WorkerPool::new(8).flat_map_chunks(&probes, |chunk| {
        css.lower_bound_batch_lanes(chunk, 8) // 8 lanes x 8 threads
    });
    assert_eq!(par, css.lower_bound_batch_lanes(&probes, 8));
    Ok(())
}

#[test]
fn readme_parallel_example_runs() {
    demo().expect("the README example must keep working");
}
