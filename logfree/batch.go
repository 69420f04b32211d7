package logfree

import (
	"fmt"
	"sync"

	"repro/internal/core"
)

// MaxBatchOps bounds Batch.Commit: a group commit briefly holds the stripe
// locks of every key it touches, so batches are kept small enough that one
// commit cannot monopolize the map. Commit of a larger batch fails with
// ErrBatchTooLarge before anything is applied.
const MaxBatchOps = 1024

// Batch collects Set/SetItem/Delete operations against one map and applies
// them on Commit under a single epoch section with one shared content fence
// before the per-op publishing links: N buffered writes pay ~N+1 NVRAM sync
// waits instead of the 2N they would cost issued singly.
//
// Batches are NOT transactions. Each operation publishes through its own
// atomic durable point, in batch order, so a crash during Commit leaves a
// durable per-op prefix of the batch — every individual operation is still
// crash-atomic (old value or new value, never a torn mix), and an operation
// is never durable before the ones buffered ahead of it.
//
// Against a joined map (JoinMaps; a sharded.Pool's maps) the ops are bucketed
// per part on Commit and committed per part IN PARALLEL (one goroutine per
// part that has ops), each part paying its own single amortized content
// fence. Crash semantics: within one part the per-op prefix guarantee holds
// exactly — ops routed to that part become durable in their buffered order,
// each individually crash-atomic. ACROSS parts there is no atomicity and no
// ordering: a crash mid-commit can persist all of one part's ops and none of
// another's. Callers that need a global prefix must keep the batch's keys on
// one part (or use an unsharded runtime).
//
// Key and value bytes are copied when buffered; callers may reuse their
// slices immediately. A Batch is not safe for concurrent use; Commit may be
// called from any goroutine (it draws its own sessions unless the map view
// is pinned).
type Batch struct {
	apply func(part int, ops []core.BytesOp) error // runs ops, all routed to part, there
	route func(key []byte) int                     // the map's; never called with one part
	per   [][]core.BytesOp                         // Commit's bucket of each part
	ops   []core.BytesOp

	// arena backs the buffered key/value copies: one growing buffer instead
	// of two allocations per op, reused across Commit/Reset cycles. Ops
	// hold subslices; an arena growth leaves earlier subslices pointing
	// into the (immutable, still-referenced) previous backing array.
	arena []byte
}

// buf copies p onto the arena and returns the stable view of the copy.
func (b *Batch) buf(p []byte) []byte {
	if len(p) == 0 {
		return nil
	}
	b.arena = append(b.arena, p...)
	return b.arena[len(b.arena)-len(p):]
}

// Set buffers a durable upsert of key to value (meta 0, aux 0).
func (b *Batch) Set(key, value []byte) *Batch {
	return b.SetItem(key, value, 0, 0)
}

// SetItem buffers a durable upsert of key to value with the entry's
// metadata field and aux word.
func (b *Batch) SetItem(key, value []byte, meta uint16, aux uint64) *Batch {
	b.ops = append(b.ops, core.BytesOp{
		Key:   b.buf(key),
		Value: b.buf(value),
		Meta:  meta,
		Aux:   aux,
	})
	return b
}

// Delete buffers a durable delete of key.
func (b *Batch) Delete(key []byte) *Batch {
	b.ops = append(b.ops, core.BytesOp{Del: true, Key: b.buf(key)})
	return b
}

// Len reports the number of buffered operations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset discards the buffered operations, keeping the backing storage for
// reuse.
func (b *Batch) Reset() *Batch {
	b.ops = b.ops[:0]
	b.arena = b.arena[:0]
	return b
}

// Commit applies the buffered operations in order (see the type comment for
// durability and crash semantics) and resets the batch on success. The total
// op count is held to MaxBatchOps whatever the number of parts. On error the
// batch keeps its ops, all of them: an ErrFull commit may have applied a
// prefix (exactly as a crash would), and parts that committed before another
// part's failure stay committed (exactly the cross-part crash semantics), so
// a retry re-applies what already landed — sets and deletes are idempotent.
// Argument errors (ErrBadKey, ErrTooLarge) are checked up front by the part
// the op routes to and apply nothing there; ErrBatchTooLarge applies nothing
// anywhere.
func (b *Batch) Commit() error {
	if len(b.ops) > MaxBatchOps {
		return fmt.Errorf("%w: %d ops (max %d)", ErrBatchTooLarge, len(b.ops), MaxBatchOps)
	}
	if len(b.ops) == 0 {
		return nil
	}
	if err := b.commit(); err != nil {
		return err
	}
	b.Reset()
	return nil
}

// commit applies the buffered ops part by part, each part's in buffered
// order, and returns the first part's error in part order.
func (b *Batch) commit() error {
	if len(b.per) == 1 {
		return b.apply(0, b.ops)
	}
	for i := range b.per {
		b.per[i] = b.per[i][:0]
	}
	for _, op := range b.ops {
		i := b.route(op.Key)
		b.per[i] = append(b.per[i], op)
	}
	errs := make([]error, len(b.per))
	var wg sync.WaitGroup
	for i, ops := range b.per {
		if len(ops) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = b.apply(i, ops)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
