package replication

import "strings"

// Duplicate suppression. Every replica keeps one record per operation key
// it has seen, so a retransmission or a redundant copy of an operation is
// answered from the record instead of executing twice. A record lives until
// its client no longer needs it: each root invocation carries its client's
// low-water mark (msgInvocation.Done — every root OpSeq at or below it has
// returned at the client), and when the invocation is delivered the
// replica drops that client's records at or below the mark and raises the
// client's *retired horizon* to it. Delivery is totally ordered, so every
// replica retires at the same point of the stream. A client's retransmits
// are multicast before it closes the operation, and later invocations
// after, so an ordered copy of a key at or below the horizon can only be a
// stale re-delivery: each call site decides explicitly what such a key
// means (see lookup's callers).
//
// The count caps stay as overflow bounds only. Past dedupRetain records
// the oldest record is evicted, and its client remembers the highest
// OpSeq evicted: an ordered invocation at or below that mark, above the
// horizon and without a record, may have executed already, so it is
// refused with a system exception instead of running again. Past
// horizonRetain client entries, the entry idle longest (no live record) is
// forgotten along with its horizon. Nested ("g:") and fulfillment ("f:")
// keys carry no low-water mark and stay under the record cap only.

// dedupRetain caps a replica's duplicate-suppression records.
const dedupRetain = 4096

// horizonRetain caps a replica's idle per-client horizon entries.
const horizonRetain = 4096

// rootClientPrefix starts every root client id; only root keys have
// per-client horizons.
const rootClientPrefix = "c:"

func isRootClient(id string) bool { return strings.HasPrefix(id, rootClientPrefix) }

// opRecord is one duplicate-suppression entry.
type opRecord struct {
	deliveredInv  bool // the invocation itself was delivered here before
	answered      bool // a reply for the operation has been delivered
	executedLocal bool // this replica executed the operation
	reply         *msgReply

	key          opKey
	prev, next   *opRecord    // every record, oldest first
	cprev, cnext *opRecord    // the client's records, OpSeq ascending (root keys)
	client       *clientTrack // nil for nested and fulfillment keys
}

// clientTrack is one root client's horizons and live records.
type clientTrack struct {
	id      string
	retired uint64 // every OpSeq at or below is retired
	evicted uint64 // highest OpSeq the record cap evicted
	// head and tail list the client's live records, OpSeq ascending.
	head, tail *opRecord
	// idlePrev and idleNext link the track into the idle list while it
	// holds no record (head == nil).
	idlePrev, idleNext *clientTrack
	pass               uint64 // last window pass that emitted the track
}

// keyState is what the table knows about a key.
type keyState uint8

const (
	keyNew     keyState = iota // no record, above every horizon
	keyLive                    // a record exists
	keyRetired                 // at or below the client's retired horizon
	keyEvicted                 // at or below the eviction mark, above the horizon
)

// dedupTable is a replica's duplicate-suppression state. It is guarded by
// the replica's mu.
type dedupTable struct {
	recs           map[opKey]*opRecord
	oldest, newest *opRecord
	clients        map[string]*clientTrack
	idleHead       *clientTrack // idle longest
	idleTail       *clientTrack
	pass           uint64 // window passes so far
}

func newDedupTable() dedupTable {
	return dedupTable{
		recs:    make(map[opKey]*opRecord),
		clients: make(map[string]*clientTrack),
	}
}

// lookup returns k's record (keyLive) or says why it has none.
func (d *dedupTable) lookup(k opKey) (*opRecord, keyState) {
	if rec, ok := d.recs[k]; ok {
		return rec, keyLive
	}
	if !isRootClient(k.ClientID) {
		return nil, keyNew
	}
	return nil, d.clients[k.ClientID].state(k.OpSeq)
}

// state classifies a root OpSeq that has no record (nil-safe).
func (c *clientTrack) state(seq uint64) keyState {
	switch {
	case c == nil:
		return keyNew
	case seq <= c.retired:
		return keyRetired
	case seq <= c.evicted:
		return keyEvicted
	}
	return keyNew
}

// record returns k's record, creating it on first sight regardless of the
// horizons — callers that must respect them check lookup first.
func (d *dedupTable) record(k opKey) *opRecord {
	if rec, ok := d.recs[k]; ok {
		return rec
	}
	rec := &opRecord{key: k}
	d.recs[k] = rec
	rec.prev = d.newest
	if d.newest != nil {
		d.newest.next = rec
	} else {
		d.oldest = rec
	}
	d.newest = rec
	if isRootClient(k.ClientID) {
		d.linkClient(rec, d.track(k.ClientID))
	}
	if len(d.recs) > dedupRetain {
		old := d.oldest
		if c := old.client; c != nil && old.key.OpSeq > c.evicted {
			c.evicted = old.key.OpSeq
		}
		d.drop(old)
	}
	return rec
}

// track returns the client's track, creating it on first sight. A new
// track past horizonRetain forgets the client idle longest.
func (d *dedupTable) track(id string) *clientTrack {
	if c, ok := d.clients[id]; ok {
		return c
	}
	c := &clientTrack{id: id}
	d.clients[id] = c
	d.pushIdle(c)
	if len(d.clients) > horizonRetain && d.idleHead != c {
		gone := d.idleHead
		d.unlinkIdle(gone)
		delete(d.clients, gone.id)
	}
	return c
}

// linkClient inserts rec into its client's OpSeq-ordered list. Keys
// arrive nearly in order, so the walk back from the tail is short.
func (d *dedupTable) linkClient(rec *opRecord, c *clientTrack) {
	if c.head == nil {
		d.unlinkIdle(c)
	}
	rec.client = c
	at := c.tail
	for at != nil && at.key.OpSeq > rec.key.OpSeq {
		at = at.cprev
	}
	rec.cprev = at
	if at != nil {
		rec.cnext = at.cnext
		at.cnext = rec
	} else {
		rec.cnext = c.head
		c.head = rec
	}
	if rec.cnext != nil {
		rec.cnext.cprev = rec
	} else {
		c.tail = rec
	}
}

// drop removes rec from the table.
func (d *dedupTable) drop(rec *opRecord) {
	delete(d.recs, rec.key)
	if rec.prev != nil {
		rec.prev.next = rec.next
	} else {
		d.oldest = rec.next
	}
	if rec.next != nil {
		rec.next.prev = rec.prev
	} else {
		d.newest = rec.prev
	}
	rec.prev, rec.next = nil, nil
	c := rec.client
	if c == nil {
		return
	}
	if rec.cprev != nil {
		rec.cprev.cnext = rec.cnext
	} else {
		c.head = rec.cnext
	}
	if rec.cnext != nil {
		rec.cnext.cprev = rec.cprev
	} else {
		c.tail = rec.cprev
	}
	rec.cprev, rec.cnext, rec.client = nil, nil, nil
	if c.head == nil {
		d.pushIdle(c)
	}
}

// retire applies a delivered root invocation's low-water mark: the
// client's records at or below done are dropped and its horizon rises to
// done. It returns how many records it dropped.
func (d *dedupTable) retire(client string, done uint64) int {
	if done == 0 || !isRootClient(client) {
		return 0
	}
	return d.raise(d.track(client), done, 0)
}

// raise lifts c's horizons to at least retired and evicted and drops the
// records the new retired horizon covers.
func (d *dedupTable) raise(c *clientTrack, retired, evicted uint64) int {
	if evicted > c.evicted {
		c.evicted = evicted
	}
	if retired <= c.retired {
		return 0
	}
	c.retired = retired
	n := 0
	for c.head != nil && c.head.key.OpSeq <= retired {
		d.drop(c.head)
		n++
	}
	return n
}

func (d *dedupTable) pushIdle(c *clientTrack) {
	c.idlePrev, c.idleNext = d.idleTail, nil
	if d.idleTail != nil {
		d.idleTail.idleNext = c
	} else {
		d.idleHead = c
	}
	d.idleTail = c
}

func (d *dedupTable) unlinkIdle(c *clientTrack) {
	if c.idlePrev != nil {
		c.idlePrev.idleNext = c.idleNext
	} else {
		d.idleHead = c.idleNext
	}
	if c.idleNext != nil {
		c.idleNext.idlePrev = c.idlePrev
	} else {
		d.idleTail = c.idlePrev
	}
	c.idlePrev, c.idleNext = nil, nil
}

// window encodes the executed records, oldest first, and every client's
// horizons — the duplicate-suppression state a checkpoint carries.
func (d *dedupTable) window() []byte {
	w := windowEncoder{keys: make([]byte, 0, 4*len(d.recs))}
	d.pass++
	for rec := d.oldest; rec != nil; rec = rec.next {
		if rec.executedLocal {
			w.add(rec.key)
		}
		if c := rec.client; c != nil && c.pass != d.pass {
			c.pass = d.pass
			w.addHorizon(c)
		}
	}
	for c := d.idleHead; c != nil; c = c.idleNext {
		w.addHorizon(c)
	}
	return w.bytes()
}

// adopt merges a checkpoint window into the table: horizons rise to the
// offered ones (dropping the records they cover), then every covered key
// above its horizon gets a delivered, executed record.
func (d *dedupTable) adopt(win window) int {
	n := 0
	for _, h := range win.horizons {
		if isRootClient(h.ClientID) {
			n += d.raise(d.track(h.ClientID), h.Retired, h.Evicted)
		}
	}
	for _, k := range win.keys {
		if _, st := d.lookup(k); st == keyRetired {
			continue
		}
		rec := d.record(k)
		rec.deliveredInv = true
		rec.executedLocal = true
	}
	return n
}
