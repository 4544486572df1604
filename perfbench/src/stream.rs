//! Seeded operation streams. The benchmark derives every input — file
//! choice, operation kind, payload bytes — from the `--seed` argument, so
//! one seed always replays the same operations; the system only ever
//! sees the generated operations.

/// SplitMix64: small, fast and good enough to spread keys uniformly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of `seed`, independent of the others.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Fills `buf` with stream bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// One client operation. File indexes double as host-table keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Token read of a linked file.
    Read(usize),
    /// Update-in-place of a file the client owns.
    Update(usize),
    /// Link then unlink of a file the client owns.
    LinkCycle(usize),
}

/// How a workload draws its operations.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// Reads of any of `files`.
    Reads { files: usize },
    /// Per op, with probability ½ an update of one of the client's own
    /// files (index ≡ client mod clients), otherwise a read of any file.
    Updates { files: usize, clients: usize },
    /// Link cycles over the client's own files.
    LinkCycles { files: usize, clients: usize },
}

/// The operation stream of one client in one round.
pub struct OpStream {
    rng: Rng,
    mix: Mix,
    client: usize,
}

impl OpStream {
    pub fn new(seed: u64, round: usize, client: usize, mix: Mix) -> OpStream {
        let rng = Rng::stream(seed, ((round as u64) << 16) | client as u64);
        OpStream { rng, mix, client }
    }

    /// A file of this client's share of `files`.
    fn owned(&mut self, files: usize, clients: usize) -> usize {
        let share = files.div_ceil(clients);
        loop {
            let f = self.rng.below(share) * clients + self.client;
            if f < files {
                return f;
            }
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(match self.mix {
            Mix::Reads { files } => Op::Read(self.rng.below(files)),
            Mix::Updates { files, clients } => {
                if self.rng.next_u64() & 1 == 0 {
                    Op::Update(self.owned(files, clients))
                } else {
                    Op::Read(self.rng.below(files))
                }
            }
            Mix::LinkCycles { files, clients } => Op::LinkCycle(self.owned(files, clients)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, round: usize, client: usize, mix: Mix) -> Vec<Op> {
        OpStream::new(seed, round, client, mix).take(2000).collect()
    }

    #[test]
    fn a_seed_always_yields_the_same_stream() {
        for mix in [
            Mix::Reads { files: 4096 },
            Mix::Updates { files: 256, clients: 2 },
            Mix::LinkCycles { files: 1024, clients: 2 },
        ] {
            assert_eq!(take(7, 0, 1, mix), take(7, 0, 1, mix));
            assert_ne!(take(7, 0, 1, mix), take(8, 0, 1, mix));
            assert_ne!(take(7, 0, 0, mix), take(7, 0, 1, mix));
            assert_ne!(take(7, 0, 0, mix), take(7, 1, 0, mix));
        }
    }

    #[test]
    fn clients_only_write_their_own_files() {
        for client in 0..2 {
            for op in take(3, 0, client, Mix::Updates { files: 256, clients: 2 }) {
                match op {
                    Op::Update(f) => assert_eq!(f % 2, client),
                    Op::Read(f) => assert!(f < 256),
                    Op::LinkCycle(_) => unreachable!(),
                }
            }
            for op in take(3, 0, client, Mix::LinkCycles { files: 1024, clients: 2 }) {
                assert!(matches!(op, Op::LinkCycle(f) if f % 2 == client && f < 1024));
            }
        }
    }

    #[test]
    fn updates_are_about_half_the_mix() {
        let ops = take(11, 0, 0, Mix::Updates { files: 256, clients: 2 });
        let updates = ops.iter().filter(|op| matches!(op, Op::Update(_))).count();
        assert!((900..1100).contains(&updates), "{updates} of 2000");
    }
}
