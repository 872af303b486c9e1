//! Seeded fuzz-style robustness test for the KVS wire parsers: random,
//! truncated and bit-flipped frames of 0–128 B pushed through
//! [`read_request`] and [`read_deadline`]. The contract under test: no
//! byte sequence of any length panics either parser, and each returns
//! `None` exactly in its documented cases — `read_request` for a frame
//! too short to carry opcode + key or an unknown opcode, `read_deadline`
//! for a frame too short to carry the field or a zero field.

use kvs::proto::{
    read_deadline, read_request, write_deadline, write_request, KvOp, KvRequest, DEADLINE_OFF,
    DEADLINE_TICK_NS, KEY_OFF, OP_OFF, REQUEST_SIZE,
};
use trafficgen::Rng64;

const ITERS: usize = 20_000;

/// Draws the next adversarial frame into `buf` and returns its length:
/// pure noise, a valid request cut short, or a valid request with
/// random bytes flipped.
fn next_frame(rng: &mut Rng64, buf: &mut [u8; REQUEST_SIZE]) -> usize {
    match rng.gen_range(0u32..3) {
        0 => {
            for b in buf.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            rng.gen_range(0usize..REQUEST_SIZE + 1)
        }
        1 => {
            well_formed(rng, buf);
            rng.gen_range(0usize..REQUEST_SIZE + 1)
        }
        _ => {
            well_formed(rng, buf);
            for _ in 0..rng.gen_range(1usize..9) {
                let at = rng.gen_range(0usize..REQUEST_SIZE);
                buf[at] = rng.next_u64() as u8;
            }
            REQUEST_SIZE
        }
    }
}

/// A well-formed request, with a deadline half the time.
fn well_formed(rng: &mut Rng64, buf: &mut [u8; REQUEST_SIZE]) {
    buf.fill(0);
    let op = if rng.gen_range(0u32..2) == 0 {
        KvOp::Get
    } else {
        KvOp::Set
    };
    write_request(
        buf,
        &KvRequest {
            op,
            key: rng.next_u64() as u32,
        },
    );
    if rng.gen_range(0u32..2) == 0 {
        write_deadline(buf, 1.0 + rng.gen_range(0u32..1_000_000) as f64);
    }
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("four bytes"))
}

#[test]
fn parsers_never_panic_and_return_none_exactly_when_documented() {
    let mut rng = Rng64::seed_from_u64(0xf022_0c0d);
    let mut buf = [0u8; REQUEST_SIZE];
    let (mut requests, mut deadlines) = (0usize, 0usize);
    for iter in 0..ITERS {
        let len = next_frame(&mut rng, &mut buf);
        let frame = &buf[..len];

        let expected_req = if len < KEY_OFF + 4 {
            None
        } else {
            match frame[OP_OFF] {
                0 => Some(KvOp::Get),
                1 => Some(KvOp::Set),
                _ => None,
            }
            .map(|op| KvRequest {
                op,
                key: le_u32(&frame[KEY_OFF..KEY_OFF + 4]),
            })
        };
        assert_eq!(
            read_request(frame),
            expected_req,
            "iteration {iter}, len {len}"
        );
        requests += usize::from(expected_req.is_some());

        let expected_deadline = if len < DEADLINE_OFF + 4 {
            None
        } else {
            let ticks = le_u32(&frame[DEADLINE_OFF..DEADLINE_OFF + 4]);
            (ticks > 0).then_some(ticks as f64 * DEADLINE_TICK_NS)
        };
        assert_eq!(
            read_deadline(frame),
            expected_deadline,
            "iteration {iter}, len {len}"
        );
        deadlines += usize::from(expected_deadline.is_some());
    }
    // The generator must exercise both outcomes of both parsers.
    assert!(
        requests > ITERS / 10 && requests < ITERS,
        "parsed {requests}"
    );
    assert!(
        deadlines > ITERS / 10 && deadlines < ITERS,
        "deadlines {deadlines}"
    );
}

#[test]
fn every_length_of_a_valid_request_parses_iff_it_carries_the_fields() {
    let mut buf = [0u8; REQUEST_SIZE];
    let req = KvRequest {
        op: KvOp::Set,
        key: 0xdead_beef,
    };
    write_request(&mut buf, &req);
    write_deadline(&mut buf, 1_000.0);
    for len in 0..=REQUEST_SIZE {
        let frame = &buf[..len];
        assert_eq!(
            read_request(frame),
            (len >= KEY_OFF + 4).then_some(req),
            "len {len}"
        );
        assert_eq!(
            read_deadline(frame),
            (len >= DEADLINE_OFF + 4).then_some(1_008.0),
            "len {len}"
        );
    }
}
