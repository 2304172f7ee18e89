//! Allocation budget of the live BMP path. The reader thread expands
//! each UPDATE into one event per prefix and the pump thread drops
//! them; both stay off the heap per prefix only because events share
//! their collector name and AS path. A counting global allocator (this
//! binary's own) locks that in.

use artemis_bgp::{AsPath, Asn, PathAttributes, Prefix, Segment, UpdateMessage};
use artemis_bmp::PeerHeader;
use artemis_feeds::live::update_events;
use artemis_feeds::{FeedEvent, FeedFilter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// Counts allocations per thread, so tests running in parallel do not
/// see each other's.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a const-initialised thread-local `Cell`, which
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    black_box(f());
    ALLOCATIONS.with(Cell::get) - before
}

fn path() -> AsPath {
    AsPath::from_segments([
        Segment::Sequence(vec![Asn(174), Asn(3356), Asn(65001)]),
        Segment::Set(vec![Asn(1299), Asn(2914)]),
    ])
}

fn update(prefixes: u32) -> UpdateMessage {
    let nlri = (0..prefixes)
        .map(|i| Prefix::new(Ipv4Addr::from(0x0A00_0000 + (i << 8)).into(), 24).unwrap())
        .collect();
    UpdateMessage {
        withdrawn: vec![Prefix::new(Ipv4Addr::new(192, 0, 2, 0).into(), 24).unwrap()],
        attrs: Some(PathAttributes::with_path(
            path(),
            IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
        )),
        nlri,
    }
}

fn peer() -> PeerHeader {
    PeerHeader::global(
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10)),
        Asn(174),
        Ipv4Addr::new(10, 0, 0, 1),
        5_000_000,
    )
}

#[test]
fn cloning_a_path_or_an_event_allocates_nothing() {
    let path = path();
    assert_eq!(allocations(|| path.clone()), 0);
    assert_eq!(allocations(|| path.prepend_n(Asn(7), 0)), 0);

    let collector: Arc<str> = Arc::from("bmp0");
    let mut events = Vec::with_capacity(2);
    update_events(&collector, &peer(), &update(1), None, &mut events);
    let announcement = events.pop().expect("one announcement");
    let withdrawal = events.pop().expect("one withdrawal");
    assert!(announcement.as_path.is_some() && withdrawal.as_path.is_none());
    assert_eq!(allocations(|| announcement.clone()), 0);
    assert_eq!(allocations(|| withdrawal.clone()), 0);
}

#[test]
fn update_expansion_allocates_per_update_not_per_prefix() {
    let collector: Arc<str> = Arc::from("bmp0");
    let peer = peer();
    // The reader reuses one batch buffer, so its growth is not part of
    // the steady state: give it the room up front.
    let mut out: Vec<FeedEvent> = Vec::with_capacity(128);
    let mut expand = |prefixes: u32, filter: Option<&FeedFilter>| {
        let update = update(prefixes);
        out.clear();
        let mut filtered = 0;
        let n =
            allocations(|| filtered = update_events(&collector, &peer, &update, filter, &mut out));
        (n, out.len() as u64 + filtered)
    };
    let (one, events) = expand(1, None);
    assert_eq!(events, 2);
    let (many, events) = expand(64, None);
    assert_eq!(events, 65);
    assert_eq!(
        many, one,
        "allocations must not grow with prefixes per UPDATE"
    );

    // Filtering happens before the event would enter the batch; it
    // must not add per-prefix allocations either.
    let filter = FeedFilter::any().vantage(Asn(3356));
    let (filtered_one, _) = expand(1, Some(&filter));
    let (filtered_many, events) = expand(64, Some(&filter));
    assert_eq!(events, 65);
    assert_eq!(filtered_many, filtered_one);
}
