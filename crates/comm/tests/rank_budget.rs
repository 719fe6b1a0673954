//! Rank thread budget: every launcher runs each rank with a rayon width of
//! the enclosing width divided by the ranks that share the cores, at
//! least 1.
//!
//! * Thread launchers (`run_cluster`, `run_cluster_hier_threads`,
//!   `run_cluster_tcp_threads`) divide the calling thread's width by the
//!   world size, for worlds 1, 2, 3 and 8 under outer widths 1, 2 and 4.
//! * Forked TCP children divide the caller's width by the world size.
//! * A rank that panics leaves the caller's width as it was.

use cluster_comm::{
    run_cluster, run_cluster_hier_threads, run_cluster_tcp_threads, run_multiprocess_spec,
    NetworkProfile, WorldSpec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn pool(width: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap()
}

fn budget(outer: usize, ranks: usize) -> usize {
    (outer / ranks).max(1)
}

/// `(groups, group_size)` shapes of 1, 2, 3 and 8 hierarchical ranks.
const HIER_SHAPES: [(usize, usize); 4] = [(1, 1), (1, 2), (3, 1), (2, 4)];

#[test]
fn in_proc_ranks_split_the_callers_width() {
    for outer in [1, 2, 4] {
        for p in [1, 2, 3, 8] {
            let seen = pool(outer).install(|| {
                run_cluster(p, NetworkProfile::infiniband_100g(), |_| rayon::current_num_threads())
            });
            assert_eq!(seen, vec![budget(outer, p); p], "run_cluster({p}) under width {outer}");
        }
    }
}

#[test]
fn tcp_thread_ranks_split_the_callers_width() {
    for outer in [1, 2, 4] {
        for p in [1, 2, 3, 8] {
            let seen = pool(outer)
                .install(|| run_cluster_tcp_threads(p, |_| rayon::current_num_threads()));
            assert_eq!(seen, vec![budget(outer, p); p], "tcp threads({p}) under width {outer}");
        }
    }
}

#[test]
fn hier_thread_ranks_split_the_callers_width() {
    for outer in [1, 2, 4] {
        for (groups, group_size) in HIER_SHAPES {
            let p = groups * group_size;
            let seen = pool(outer).install(|| {
                run_cluster_hier_threads(groups, group_size, |_, _| rayon::current_num_threads())
            });
            assert_eq!(seen, vec![budget(outer, p); p], "hier {groups}x{group_size} width {outer}");
        }
    }
}

#[test]
fn ranks_outside_install_split_the_process_default() {
    let default = rayon::current_num_threads();
    let seen = run_cluster(2, NetworkProfile::infiniband_100g(), |_| rayon::current_num_threads());
    assert_eq!(seen, vec![budget(default, 2); 2]);
    // One rank keeps the whole width.
    let seen = run_cluster_tcp_threads(1, |_| rayon::current_num_threads());
    assert_eq!(seen, vec![default]);
}

#[test]
fn nested_launch_splits_the_rank_budget_again() {
    let seen = pool(8).install(|| {
        run_cluster(2, NetworkProfile::infiniband_100g(), |_| {
            run_cluster(2, NetworkProfile::infiniband_100g(), |_| rayon::current_num_threads())
        })
    });
    assert_eq!(seen, vec![vec![2, 2], vec![2, 2]]);
}

#[test]
fn width_is_restored_after_a_rank_panics() {
    pool(4).install(|| {
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            run_cluster(2, NetworkProfile::infiniband_100g(), |h| {
                assert_ne!(h.rank(), 1, "rank 1 fails on purpose");
                rayon::current_num_threads()
            })
        }));
        assert!(crashed.is_err());
        assert_eq!(rayon::current_num_threads(), 4);
        let seen =
            run_cluster(2, NetworkProfile::infiniband_100g(), |_| rayon::current_num_threads());
        assert_eq!(seen, vec![2, 2]);
    });
}

#[test]
fn forked_children_split_the_callers_width() {
    // Every forked rank runs on this machine, so each gets the caller's
    // width over the world size. A child exits inside the first launch it
    // reaches, so the children of both launches report from the first,
    // un-installed one and see only the width their parent passed down.
    let master = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
    let spec = WorldSpec::single_host(master.to_string(), 3);
    let default = rayon::current_num_threads();
    for outer in [None, Some(6)] {
        let launch = || {
            run_multiprocess_spec(
                &spec,
                &["forked_children_split_the_callers_width", "--exact"],
                |_| vec![rayon::current_num_threads() as f32],
            )
        };
        let (out, width) = match outer {
            None => (launch(), default),
            Some(w) => (pool(w).install(launch), w),
        };
        let seen: Vec<usize> = out.iter().map(|v| v[0] as usize).collect();
        assert_eq!(seen, vec![budget(width, 3); 3], "forked ranks under width {width}");
    }
}
