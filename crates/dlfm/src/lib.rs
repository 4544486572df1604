//! DataLinks File Manager (DLFM) — the per-file-server daemon complex from
//! the ICDE 2001 paper "Database Managed External File Update" (and the
//! companion SIGMOD 2000 paper "DLFM: A Transactional Resource Manager").
//!
//! A DLFM instance manages the files of one file server on behalf of a host
//! database:
//!
//! * [`repository`] — DLFM's own transactional store (a second `dl-minidb`)
//!   holding linked-file state, token entries, the Sync table, update-in-
//!   progress entries and write-ahead intents.
//! * [`server`] — link/unlink sub-transactions driven by the host's 2PC,
//!   the open/close protocol (token entries, serialization, take-over,
//!   metadata refresh, rollback), and crash recovery.
//! * [`upcall`] — the upcall daemon servicing DLFS (§2.2), standing in for
//!   the kernel↔user-space IPC of the original: a direct call on the
//!   caller's thread in process, its worker pool for wire frames.
//! * [`agent`] — the main daemon and child agents serving link/unlink
//!   requests from database agents (§2.2), multiplexed over one shared
//!   executor, and the one fenced handler per agent operation that the
//!   in-process and wire transports share.
//! * [`pool`] — the elastic worker pool behind the upcall daemon's wire
//!   workers and the agent executor: queue-depth growth, idle shrink,
//!   panic containment, and inline runs under the same accounting.
//! * [`archive`] — the versioned archive server with asynchronous archiving
//!   and database-state-identifier tagging (§4.4).
//! * [`modes`] — the DATALINK control modes (Table 1 + the new rfd/rdd).
//! * [`token`] — HMAC-based multi-type expiring access tokens (§4.1).

pub mod agent;
pub mod archive;
pub mod modes;
pub mod pool;
pub mod repository;
pub mod server;
pub mod token;
pub mod upcall;
pub mod wire;

pub use agent::{AgentConnection, AgentHandle, AgentParticipant, MainDaemon};
pub use archive::{ArchiveJob, ArchiveStore, Archiver, ContentSource};
pub use modes::{AccessControl, ControlMode, OnUnlink};
pub use pool::{AtomicEwma, ElasticPool, PoolOptions, PoolProbe, PoolStats};
pub use repository::{FileEntry, Repository, SyncEntry, UipEntry};
pub use server::{
    DlfmConfig, DlfmServer, DlfmStats, HostHook, OpenDecision, RecoveryReport, RestoreOutcome,
    Transport,
};
pub use token::{
    embed_token, hmac_sha256, sha256, split_token_suffix, AccessToken, TokenError, TokenKind,
    TOKEN_MARKER,
};
pub use upcall::{
    FaultInjector, UpcallClient, UpcallDaemon, UpcallReply, UpcallRequest, UpcallTransport,
};
pub use wire::{WireAgent, WireConn, WireConnector, WireDaemon, WireUpcall, WIRE_CALL_TIMEOUT};
