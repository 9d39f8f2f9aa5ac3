//! The key abstraction shared by the TLB models.
//!
//! [`Tlb`](crate::Tlb) is generic over its key so the same structure serves
//! single-tenant simulations (keyed by [`VirtHugePage`], the default) and
//! multi-tenant ones (keyed by [`TaggedHugePage`], where the ASID is part
//! of the match so context switches need no flush).

use atp_types::{TaggedHugePage, VirtHugePage};
use core::hash::Hash;

/// A TLB entry key: plain map-key behaviour, nothing more.
pub trait TlbKey: Copy + Eq + Hash + core::fmt::Debug {}

impl TlbKey for VirtHugePage {}

impl TlbKey for TaggedHugePage {}
