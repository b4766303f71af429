package server

// Model replication, the paper's client/server split taken to its
// conclusion: a replica that never holds a raw measurement row can still
// answer approximate queries, because everything the planner needs — model
// parameters, table declarations, input domains, legal combinations — is
// kilobytes, not gigabytes. OpSubscribeModels replies with the primary's
// full model catalog plus a changefeed cursor; OpModelDelta long-polls that
// cursor for model deltas. Each reply also carries, per domain state a
// shipped model binds against, the increment of the rows appended since the
// session's last reply (from row 0 on subscribe), which the replica applies
// as the primary's cache applies its own. Rows never cross this wire.

import (
	"fmt"
	"time"

	"datalaws/internal/aqp"
	"datalaws/internal/modelstore"
	"datalaws/internal/table"
	"datalaws/internal/wireerr"
)

// defaultMaxDeltas bounds one OpModelDelta reply when the client sends
// MaxDeltas = 0; a resync (full snapshot) is never split.
const defaultMaxDeltas = 256

// maxWaitMillis caps how long one OpModelDelta poll may park server-side,
// bounding what a hostile WaitMillis can pin.
const maxWaitMillis = 60_000

// ModelDelta is one changefeed entry on the wire: a captured model's
// parameters and the declaration of its table. It carries no enumeration
// artifacts; the reply's increments do. For drops only Kind and Name are
// set.
type ModelDelta struct {
	Kind  modelstore.ChangeKind
	Name  string
	Model *modelstore.ModelRecord

	// Table declares the model's table, enough for a replica to register a
	// zero-row stub the planner can bind models against; a partition
	// child's is its parent's declaration, so the replica rebuilds the
	// family shape. Nil when the primary's table vanished between publish
	// and build.
	Table *table.Decl
}

// buildDelta turns one changefeed entry into its wire form, attaching the
// table's declaration.
func (s *Server) buildDelta(c modelstore.Change) ModelDelta {
	d := ModelDelta{Kind: c.Kind, Name: c.Name}
	if c.Model == nil { // a drop
		return d
	}
	rec := modelstore.RecordOf(c.Model)
	d.Model = &rec
	if decl, ok := s.eng.Catalog.DeclOf(c.Model.Spec.Table); ok {
		d.Table = &decl
	}
	return d
}

// growthMap snapshots each model's unmodeled-row growth fraction. Shipped
// on every feed reply — growth moves on ingest, not on feed entries, so a
// replica polling an idle feed still learns its models are going stale.
func (s *Server) growthMap() map[string]float64 {
	models := s.eng.Models.List()
	if len(models) == 0 {
		return nil
	}
	g := make(map[string]float64, len(models))
	for _, m := range models {
		t, ok := s.eng.Catalog.Get(m.Spec.Table)
		if !ok {
			continue
		}
		if st := m.StalenessAgainst(t); st.GrowthFrac > 0 {
			g[m.Spec.Name] = st.GrowthFrac
		}
	}
	return g
}

// feedResponse assembles one subscribe/poll reply: the model deltas, then
// an increment for each domain state of a model this session has shipped
// whose table grew since the session's last reply. A resync ships every
// state again from row 0.
func (sess *session) feedResponse(changes []modelstore.Change, next modelstore.Cursor, resync bool) *Response {
	srv := sess.srv
	resp := &Response{
		Done:     true,
		Resync:   resync,
		FeedTerm: next.Term,
		FeedSeq:  next.Seq,
		Growth:   srv.growthMap(),
	}
	if resync || sess.shipped == nil {
		sess.shipped, sess.feed = map[string]*modelstore.CapturedModel{}, aqp.Feed{}
	}
	for _, c := range changes {
		resp.Deltas = append(resp.Deltas, srv.buildDelta(c))
		if c.Model == nil {
			delete(sess.shipped, c.Name)
		} else {
			sess.shipped[c.Name] = c.Model
		}
	}
	cache := srv.eng.AQPOptions().Cache
	for name, m := range sess.shipped {
		if t, ok := srv.eng.Catalog.Get(m.Spec.Table); ok {
			if inc, ok := sess.feed.Next(cache, t, m); ok {
				resp.Increments = append(resp.Increments, DomainIncrement{Model: name, Increment: inc})
			}
		}
	}
	srv.metrics.RecordDeltasSent(len(resp.Deltas))
	return resp
}

// handleSubscribe answers OpSubscribeModels: the full current catalog as
// capture deltas, stamped with the cursor to poll from, and every domain
// state from row 0.
func (sess *session) handleSubscribe() *Response {
	srv := sess.srv
	srv.metrics.RecordSubscribe()
	// A zero cursor can never match the store's term (terms start at 1),
	// so this is always the resync path: the whole catalog plus FeedPos.
	changes, next, _ := srv.eng.Models.ChangesSince(modelstore.Cursor{}, 0)
	return sess.feedResponse(changes, next, true)
}

// handleModelDelta answers OpModelDelta: deltas past the client's cursor,
// long-polling up to WaitMillis when the feed is caught up. The poll parks
// inside the session's request loop — the protocol is strictly
// request/response, so a subscriber session runs no other statements while
// waiting — and wakes on publish, timeout, client disconnect, or drain.
func (sess *session) handleModelDelta(req *Request) *Response {
	srv := sess.srv
	store := srv.eng.Models
	cur := modelstore.Cursor{Term: req.FeedTerm, Seq: req.FeedSeq}
	max := req.MaxDeltas
	if max <= 0 {
		max = defaultMaxDeltas
	}
	var timeout <-chan time.Time
	if w := req.WaitMillis; w > 0 {
		if w > maxWaitMillis {
			w = maxWaitMillis
		}
		timer := time.NewTimer(time.Duration(w) * time.Millisecond)
		defer timer.Stop()
		timeout = timer.C
	}
	for {
		if srv.isDraining() {
			return errResponse(fmt.Errorf("server: %w", wireerr.ErrDraining))
		}
		// Watch before ChangesSince: a publish in the gap closes this
		// channel, so the select below cannot sleep through it.
		wake := store.Watch()
		changes, next, resync := store.ChangesSince(cur, max)
		if len(changes) > 0 || resync || timeout == nil {
			return sess.feedResponse(changes, next, resync)
		}
		select {
		case <-wake:
		case <-timeout:
			// Caught up: an empty reply hands the cursor back unchanged
			// (next == cur here) with a fresh growth snapshot.
			return sess.feedResponse(nil, next, false)
		case <-sess.ctx.Done():
			return errResponse(fmt.Errorf("server: %w: session closed", wireerr.ErrBadRequest))
		case <-srv.done:
			return errResponse(fmt.Errorf("server: %w", wireerr.ErrDraining))
		}
	}
}
