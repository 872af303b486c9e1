//! Microbenchmarks of the hot primitives behind every experiment: the
//! Complex Addressing hash, cache walks at each level, steering hashes,
//! slice allocation, and the dataplane tables.
//!
//! Uses the in-tree harness (`bench::harness`); run with
//! `cargo bench -p bench --features bench-harness`.

use bench::harness::{black_box, Group};
use llc_sim::addr::PhysAddr;
use llc_sim::hash::{FoldedSliceHash, SliceHash, XorSliceHash};
use llc_sim::machine::{Machine, MachineConfig};
use rte::steering::{toeplitz_hash, TOEPLITZ_KEY};
use trafficgen::{FlowTuple, ZipfGen};

fn bench_hashes() {
    let g = Group::new("hash");
    let xor = XorSliceHash::haswell_8slice();
    let mut pa = 0u64;
    g.bench("xor_slice_of", || {
        pa = pa.wrapping_add(4096);
        black_box(xor.slice_of(PhysAddr(pa)));
    });
    let folded = FoldedSliceHash::skylake_18slice();
    let mut pa2 = 0u64;
    g.bench("folded_slice_of", || {
        pa2 = pa2.wrapping_add(4096);
        black_box(folded.slice_of(PhysAddr(pa2)));
    });
    let data = [0x5au8; 12];
    g.bench("toeplitz_12B", || {
        black_box(toeplitz_hash(&TOEPLITZ_KEY, &data));
    });
}

fn bench_hierarchy() {
    let g = Group::new("hierarchy");
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
    let r = m.mem_mut().alloc(64 << 20, 1 << 20).expect("bench region");
    let pa = r.pa(0);
    m.touch_read(0, pa);
    g.bench("touch_read_l1_hit", || {
        black_box(m.touch_read(0, pa));
    });
    // 32 lines 32 KB apart share one L1 set and one L2 set (8 ways each),
    // so cycling through them misses both private caches every time but
    // stays resident in the LLC.
    let ring = |i: usize| r.pa(i % 32 * (32 << 10));
    for i in 0..32 {
        m.touch_read(0, ring(i));
    }
    let lat = m.touch_read(0, ring(0));
    let cfg = m.config();
    assert!(
        lat > u64::from(cfg.l2.latency) && lat < u64::from(cfg.dram_latency),
        "the ring must hit in the LLC, took {lat} cycles"
    );
    let mut next = 0usize;
    g.bench("touch_read_llc_hit", || {
        next += 1;
        black_box(m.touch_read(0, ring(next)));
    });
    let mut off = 0usize;
    g.bench("touch_read_streaming_miss", || {
        off = (off + 64) % (48 << 20);
        black_box(m.touch_read(0, r.pa(off)));
    });
    let pa3 = r.pa(4096);
    g.bench("clflush", || {
        black_box(m.clflush(0, pa3));
    });
    let frame = [0u8; 64];
    let mut off2 = 0usize;
    g.bench("dma_write_64B", || {
        off2 = (off2 + 2048) % (32 << 20);
        m.dma_write(r.pa(off2), &frame);
    });
    // One MTU-sized packet: 24 lines placed into the DDIO ways.
    let packet = [0u8; 1500];
    let mut off3 = 0usize;
    g.bench("dma_write_1500B", || {
        off3 = (off3 + 2048) % (32 << 20);
        m.dma_write(r.pa(off3), &packet);
    });
    // A recycled mbuf, as in the KVS and NFV receive loops: core 0 read
    // the buffer's previous packet, so every DMA'd line is LLC-resident
    // with one sharer. The read is set-up; only the DMA is timed.
    let ring = 32 * 2048;
    for off in (0..ring).step_by(2048) {
        m.dma_write(r.pa(off), &packet);
    }
    let m = std::cell::RefCell::new(m);
    let mut seen = [0u8; 1500];
    let mut off4 = 0usize;
    g.bench_with_setup(
        "dma_write_1500B_recycled",
        || {
            off4 = (off4 + 2048) % ring;
            m.borrow_mut().read_bytes(0, r.pa(off4), &mut seen);
            r.pa(off4)
        },
        |pa| m.borrow_mut().dma_write(pa, &packet),
    );
}

fn bench_alloc() {
    use slice_aware::alloc::SliceAllocator;
    let g = Group::new("slice_alloc");
    g.bench_with_setup(
        "alloc_64_lines",
        || {
            let mut mem = llc_sim::mem::PhysMem::new(64 << 20);
            let region = mem.alloc(32 << 20, 1 << 20).expect("bench region");
            let h = XorSliceHash::haswell_8slice();
            (mem, SliceAllocator::new(region, move |pa| h.slice_of(pa)))
        },
        |(_mem, mut alloc)| {
            black_box(alloc.alloc_lines(3, 64).expect("alloc"));
        },
    );
}

fn bench_tables() {
    use nfv::lpm::{synth_routes, Lpm};
    use nfv::table::FlowTable;
    let g = Group::new("dataplane_tables");
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(512 << 20));
    let lpm = Lpm::build(&mut m, &synth_routes(3120, 1)).expect("routes fit");
    let mut dst = 0u32;
    g.bench("lpm_lookup_timed", || {
        dst = dst.wrapping_add(0x0101_0101);
        black_box(lpm.lookup(&mut m, 0, dst));
    });
    let mut table = FlowTable::create(&mut m, 1 << 13).expect("table fits");
    for i in 0..4000u32 {
        table
            .insert(&mut m, 0, &FlowTuple::tcp(i, 1, 2, 3), u64::from(i))
            .expect("under capacity");
    }
    let mut i = 0u32;
    g.bench("flow_table_lookup_timed", || {
        i = (i + 1) % 4000;
        black_box(table.lookup(&mut m, 0, &FlowTuple::tcp(i, 1, 2, 3)));
    });
}

fn bench_workloads() {
    let g = Group::new("workloads");
    let mut z = ZipfGen::new(1 << 24, 0.99, 1);
    g.bench("zipf_next_rank", || {
        black_box(z.next_rank());
    });
    let mut t = trafficgen::CampusTrace::new(trafficgen::SizeMix::campus(), 10_000, 1);
    g.bench("campus_trace_next", || {
        black_box(t.next_packet());
    });
}

fn main() {
    bench_hashes();
    bench_hierarchy();
    bench_alloc();
    bench_tables();
    bench_workloads();
}
