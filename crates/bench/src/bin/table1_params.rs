//! Table 1: the default system parameters (printed from the live
//! configuration and constants so the table can never drift from the code).

use ncp2::prelude::*;
use ncp2::sim::config::{
    CACHE_BYTES, DIFF_CYCLES_PER_WORD, INTERRUPT, LINE_BYTES, LIST_PROCESSING, PAGE_BYTES,
    PAGE_WORDS, PCI_CYCLES_PER_WORD, PCI_SETUP, SWITCH_LATENCY, TLB_ENTRIES, TLB_FILL,
    TWIN_CYCLES_PER_WORD, WIRE_LATENCY, WRITE_BUFFER_ENTRIES,
};

fn main() {
    let p = SysParams::default();
    println!("== Table 1: default values for system parameters (1 cycle = 10 ns) ==");
    let rows: Vec<(String, String)> = vec![
        ("Number of processors".into(), format!("{}", p.nprocs)),
        ("TLB size".into(), format!("{} entries", TLB_ENTRIES)),
        (
            "TLB fill service time".into(),
            format!("{} cycles", TLB_FILL),
        ),
        ("All interrupts".into(), format!("{} cycles", INTERRUPT)),
        ("Page size".into(), format!("{} bytes", PAGE_BYTES)),
        (
            "Total cache per processor".into(),
            format!("{} Kbytes", CACHE_BYTES / 1024),
        ),
        (
            "Write buffer size".into(),
            format!("{} entries", WRITE_BUFFER_ENTRIES),
        ),
        (
            "Write cache size (AURC)".into(),
            format!("{} entries", p.write_cache_entries),
        ),
        ("Cache line size".into(), format!("{} bytes", LINE_BYTES)),
        (
            "Memory setup time".into(),
            format!("{} cycles", p.mem_setup),
        ),
        (
            "Memory access time (after setup)".into(),
            format!("{} cycles/word", p.mem_cycles_per_word),
        ),
        ("PCI setup time".into(), format!("{} cycles", PCI_SETUP)),
        (
            "PCI burst access time (after setup)".into(),
            format!("{} cycles/word", PCI_CYCLES_PER_WORD),
        ),
        (
            "Network path width".into(),
            format!(
                "8 bits ({} cycles/byte, bidirectional)",
                p.net_cycles_per_byte
            ),
        ),
        (
            "Messaging overhead".into(),
            format!("{} cycles", p.messaging_overhead),
        ),
        (
            "Switch latency".into(),
            format!("{} cycles", SWITCH_LATENCY),
        ),
        ("Wire latency".into(), format!("{} cycles", WIRE_LATENCY)),
        (
            "List processing".into(),
            format!("{} cycles/element", LIST_PROCESSING),
        ),
        (
            "Page twinning".into(),
            format!("{} cycles/word + memory accesses", TWIN_CYCLES_PER_WORD),
        ),
        (
            "Diff application and creation".into(),
            format!("{} cycles/word + memory accesses", DIFF_CYCLES_PER_WORD),
        ),
        (
            "DMA bit-vector scan (derived)".into(),
            format!(
                "{}..{} cycles per 4-KB page",
                p.dma_scan(0),
                p.dma_scan(PAGE_WORDS)
            ),
        ),
        (
            "Network bandwidth (derived)".into(),
            format!("{:.0} MB/s", p.net_bandwidth_mbps()),
        ),
        (
            "Memory latency (derived)".into(),
            format!("{} ns", p.mem_latency_ns()),
        ),
    ];
    for (name, value) in rows {
        println!("{name:<40} {value}");
    }
}
