//! Future work (§9): network redundancy elimination with Shredder.
//!
//! Run with `cargo run --release --example network_redundancy`.
//!
//! The paper's conclusion suggests applying Shredder to "middleboxes for
//! bandwidth reduction using network redundancy elimination" \[11\]. This
//! example sketches that: a pair of middleboxes on either end of a WAN
//! link chunk the passing byte stream, keep a synchronized chunk cache,
//! and replace repeated chunks with small tokens — the
//! EndRE/packet-cache idea built on the same chunking service.

use std::collections::HashMap;

use shredder::core::{Shredder, ShredderConfig};
use shredder::hash::{sha256, Digest};
use shredder::rabin::ChunkParams;
use shredder::workloads;

/// Token size on the wire for a cache hit (digest prefix + length).
const TOKEN_BYTES: usize = 12;

struct Middlebox {
    cache: HashMap<Digest, Vec<u8>>,
}

enum WireItem {
    Literal(Vec<u8>),
    Token(Digest),
}

impl Middlebox {
    fn new() -> Self {
        Middlebox {
            cache: HashMap::new(),
        }
    }

    /// Sender side: encode a stream as literals + tokens.
    fn encode(&mut self, data: &[u8], chunker: &Shredder) -> Vec<WireItem> {
        let outcome = chunker.chunk_stream(data).expect("chunking failed");
        outcome
            .chunks
            .iter()
            .map(|c| {
                let payload = c.slice(data);
                let digest = sha256(payload);
                match self.cache.entry(digest) {
                    std::collections::hash_map::Entry::Occupied(_) => WireItem::Token(digest),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(payload.to_vec());
                        WireItem::Literal(payload.to_vec())
                    }
                }
            })
            .collect()
    }

    /// Receiver side: reconstruct the stream, learning new literals.
    fn decode(&mut self, items: &[WireItem]) -> Vec<u8> {
        let mut out = Vec::new();
        for item in items {
            match item {
                WireItem::Literal(bytes) => {
                    self.cache.insert(sha256(bytes), bytes.clone());
                    out.extend_from_slice(bytes);
                }
                WireItem::Token(digest) => {
                    out.extend_from_slice(&self.cache[digest]);
                }
            }
        }
        out
    }
}

fn wire_bytes(items: &[WireItem]) -> usize {
    items
        .iter()
        .map(|i| match i {
            WireItem::Literal(b) => b.len(),
            WireItem::Token(..) => TOKEN_BYTES,
        })
        .sum()
}

fn main() {
    // Small expected chunks, as redundancy elimination uses (§2.1's
    // SampleByte discussion: small chunks catch fine-grained repeats).
    let chunker = Shredder::new(
        ShredderConfig::gpu_streams_memory()
            .with_params(ChunkParams::paper().with_expected_size(2048))
            .with_buffer_size(4 << 20),
    );

    let mut sender = Middlebox::new();
    let mut receiver = Middlebox::new();

    // Day one: a software update pushed to one branch office.
    let update_v1 = workloads::compressible_bytes(8 << 20, 2048, 77);
    // Day two: a patched build — 90% identical content — to another.
    let update_v2 = workloads::mutate(&update_v1, &workloads::MutationSpec::mixed(0.10, 78));

    let mut total_in = 0usize;
    let mut total_out = 0usize;
    for (day, payload) in [(1, &update_v1), (2, &update_v2)] {
        let items = sender.encode(payload, &chunker);
        let sent = wire_bytes(&items);
        let restored = receiver.decode(&items);
        assert_eq!(&restored, payload, "day {day} stream corrupted");

        total_in += payload.len();
        total_out += sent;
        println!(
            "day {day}: {:>5} KiB in -> {:>5} KiB on the wire ({:.1}% saved)",
            payload.len() >> 10,
            sent >> 10,
            (1.0 - sent as f64 / payload.len() as f64) * 100.0
        );
    }

    println!(
        "\noverall: {} KiB -> {} KiB ({:.1}% of WAN bandwidth eliminated)",
        total_in >> 10,
        total_out >> 10,
        (1.0 - total_out as f64 / total_in as f64) * 100.0
    );
}
