package ingress

import (
	"container/list"
	"fmt"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/vhttp"
)

// Prefix warm-up on migration: when a session leaves its owner replica —
// a saturation spill, a sketch-guided placement, or the owner draining —
// its KV blocks are stranded where the session no longer routes. The
// gateway remembers each active session's last chat body and fires an
// asynchronous prefill-only submit (X-Warmup: 1, batch class) of that
// body at the new owner, so the conversation's shared prefix is resident
// (or already being prefilled) before its next turn lands. A warm-up
// costs one batch-class token of decode; re-prefilling a long history
// inside an interactive turn costs the user visible TTFT.

// maxSessionNotes bounds the warm-up memory; least-recently-updated
// sessions fall off first (they are the ones least likely to return).
const maxSessionNotes = 512

// sessionNote is one session's warm-up state: the last chat body (the
// conversation history, whose prefix the next turn extends) and the
// replica it last routed to.
type sessionNote struct {
	key   string
	body  []byte
	owner string
	elem  *list.Element
}

// sessionNotes is a bounded LRU of sessionNote, keyed by session key.
// Zero value ready; no locking (gateway calls serialize on the sim's
// strict handoff).
type sessionNotes struct {
	byKey map[string]*sessionNote
	lru   *list.List // front = least recently updated
}

// put records a session's latest body and owner, returning the previous
// note state ("" / nil if the session is new). Bodies are aliased, not
// copied — request bodies are immutable once dispatched.
func (n *sessionNotes) put(key string, body []byte, owner string) (prevOwner string, prevBody []byte) {
	if n.byKey == nil {
		n.byKey = make(map[string]*sessionNote)
		n.lru = list.New()
	}
	if note, ok := n.byKey[key]; ok {
		prevOwner, prevBody = note.owner, note.body
		note.body, note.owner = body, owner
		n.lru.MoveToBack(note.elem)
		return prevOwner, prevBody
	}
	if len(n.byKey) >= maxSessionNotes {
		oldest := n.lru.Front()
		old := oldest.Value.(*sessionNote)
		n.lru.Remove(oldest)
		delete(n.byKey, old.key)
	}
	note := &sessionNote{key: key, body: body, owner: owner}
	note.elem = n.lru.PushBack(note)
	n.byKey[key] = note
	return "", nil
}

// owned appends the notes currently owned by the named replica.
func (n *sessionNotes) owned(name string, dst []*sessionNote) []*sessionNote {
	if n.byKey == nil {
		return dst
	}
	for e := n.lru.Front(); e != nil; e = e.Next() {
		if note := e.Value.(*sessionNote); note.owner == name {
			dst = append(dst, note)
		}
	}
	return dst
}

// noteAndWarm tracks a session-keyed chat dispatch and, when the pick
// migrated the session off its previous owner, fires a warm-up of the
// recorded history at the new one. Warm-up submits themselves are
// excluded — a warm-up must not recursively warm.
func (g *Gateway) noteAndWarm(sreq *sched.Request, b *Backend, req *vhttp.Request) {
	if sreq.SessionKey == "" || req.Path != chatPath || req.Header[sched.WarmupHeader] != "" {
		return
	}
	prevOwner, prevBody := g.notes.put(sreq.SessionKey, req.Body, b.Name)
	if sreq.Spilled && prevOwner != "" && prevOwner != b.Name {
		// The current turn is already on its way to b and will prefill
		// its own prompt; the recorded history is that prompt's shared
		// prefix, so the async warm-up races it harmlessly (the prefix
		// index deduplicates by chain key) and covers the common case
		// where the spill outlives this one turn.
		g.fireWarmup(b, prevBody)
	}
}

// warmOnDrain re-homes the draining replica's sessions: each gets its
// next affine owner computed over the remaining routable set and a
// warm-up of its history fired there. Called from RemoveBackend after
// the backend is marked draining (so views already excludes it).
func (g *Gateway) warmOnDrain(name string) {
	if g.eng == nil || g.stopped {
		return
	}
	moved := g.notes.owned(name, nil)
	if len(moved) == 0 {
		return
	}
	cands, backends := g.views(nil)
	if len(cands) == 0 {
		return // nothing routable; the cold-start path owns this case
	}
	for _, note := range moved {
		b := backends[sched.Affine(cands, note.key)]
		note.owner = b.Name
		g.fireWarmup(b, note.body)
	}
}

// chatPath is the only endpoint warm-up applies to: chat histories are
// the prompts with reusable shared prefixes.
const chatPath = "/v1/chat/completions"

// fireWarmup issues the async prefill-only submit. Best-effort: errors
// only mean the next turn pays its own prefill, exactly as without
// warm-up.
func (g *Gateway) fireWarmup(b *Backend, body []byte) {
	if g.eng == nil || g.stopped || len(body) == 0 {
		return
	}
	g.stats.Warmups++
	g.eng.Go(fmt.Sprintf("gw-warmup-%s-%d", b.Name, g.stats.Warmups), func(p *sim.Proc) {
		req := &vhttp.Request{
			Method: "POST",
			URL:    b.chatURL,
			Header: map[string]string{
				sched.WarmupHeader:   "1",
				sched.PriorityHeader: sched.ClassBatch.String(),
			},
			Body: body,
		}
		_, _ = g.client.Do(p, req)
	})
}
