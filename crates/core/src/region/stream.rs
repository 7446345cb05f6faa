//! The region's RNG streams, as a closed set.
//!
//! Every random draw in the region comes from a stream seeded by the run
//! seed and the stream's name (`nezha_sim::rng::derive_seed`), so streams
//! are mutually independent and any shard can re-derive exactly its own.
//! The names live in one `match`: a duplicate is two equal literals side
//! by side, and a new stream is a new variant.

use nezha_sim::rng::{derive_seed, derive_seed_indexed, SimRng};

/// One named RNG stream (or, for the indexed ones, one family of them).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Stream {
    /// Offload completion times (`Region::sample_completion`).
    Completion,
    /// The barrier's per-epoch plan: flash crowds and fault waves.
    Controller,
    /// Indexed by tenant id: the lazily derived tenant's parameters.
    Tenant,
    /// Indexed by global server id: every draw that server makes.
    Server,
}

impl Stream {
    /// The name folded into the seed. Pinned by the shard goldens and the
    /// `region_month` payload digest: renaming one re-baselines both.
    const fn name(self) -> &'static str {
        match self {
            Stream::Completion => "region.completion",
            Stream::Controller => "region.controller",
            Stream::Tenant => "region.tenant",
            Stream::Server => "region.server",
        }
    }

    /// The stream's RNG for a run seeded with `seed`.
    pub(crate) fn rng(self, seed: u64) -> SimRng {
        SimRng::new(derive_seed(seed, self.name()))
    }

    /// Member `index` of an indexed stream.
    pub(crate) fn rng_at(self, seed: u64, index: u64) -> SimRng {
        SimRng::new(derive_seed_indexed(seed, self.name(), index))
    }
}
