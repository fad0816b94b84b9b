package k8s

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
)

// EventType classifies watch events.
type EventType string

const (
	Added    EventType = "ADDED"
	Modified EventType = "MODIFIED"
	Deleted  EventType = "DELETED"
)

// Event is one watch notification.
type Event struct {
	Type EventType
	Kind string
	Key  string
	Obj  any
}

// watchLatency is the delay before watchers observe a change.
const watchLatency = 10 * time.Millisecond

// Store is the API server's object database: kind → namespaced name →
// object, with asynchronous watch delivery mimicking the control plane's
// eventual consistency (watchers observe changes after watchLatency).
type Store struct {
	eng      *sim.Engine
	objects  map[string]map[string]any
	watchers map[string][]func(Event)
}

// NewStore builds an empty store.
func NewStore(eng *sim.Engine) *Store {
	return &Store{
		eng:      eng,
		objects:  make(map[string]map[string]any),
		watchers: make(map[string][]func(Event)),
	}
}

func (s *Store) bucket(kind string) map[string]any {
	b := s.objects[kind]
	if b == nil {
		b = make(map[string]any)
		s.objects[kind] = b
	}
	return b
}

// Create stores a new object; it fails if the key exists.
func (s *Store) Create(kind, key string, obj any) error {
	b := s.bucket(kind)
	if _, exists := b[key]; exists {
		return fmt.Errorf("k8s: %s %q already exists", kind, key)
	}
	b[key] = obj
	s.notify(Event{Type: Added, Kind: kind, Key: key, Obj: obj})
	return nil
}

// Update replaces an existing object.
func (s *Store) Update(kind, key string, obj any) error {
	b := s.bucket(kind)
	if _, exists := b[key]; !exists {
		return fmt.Errorf("k8s: %s %q not found", kind, key)
	}
	b[key] = obj
	s.notify(Event{Type: Modified, Kind: kind, Key: key, Obj: obj})
	return nil
}

// Apply is create-or-update (kubectl apply semantics).
func (s *Store) Apply(kind, key string, obj any) {
	b := s.bucket(kind)
	_, exists := b[key]
	b[key] = obj
	t := Added
	if exists {
		t = Modified
	}
	s.notify(Event{Type: t, Kind: kind, Key: key, Obj: obj})
}

// Delete removes an object; deleting a missing key is a no-op returning
// false.
func (s *Store) Delete(kind, key string) bool {
	b := s.bucket(kind)
	obj, exists := b[key]
	if !exists {
		return false
	}
	delete(b, key)
	s.notify(Event{Type: Deleted, Kind: kind, Key: key, Obj: obj})
	return true
}

// Get fetches an object (nil when absent).
func (s *Store) Get(kind, key string) any {
	return s.bucket(kind)[key]
}

// List returns all objects of a kind, ordered by key for determinism.
func (s *Store) List(kind string) []any {
	b := s.bucket(kind)
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]any, 0, len(keys))
	for _, k := range keys {
		out = append(out, b[k])
	}
	return out
}

// Watch registers fn for events on kind. Events are delivered as fresh
// engine events after watchLatency; handlers therefore see settled state.
func (s *Store) Watch(kind string, fn func(Event)) {
	s.watchers[kind] = append(s.watchers[kind], fn)
}

func (s *Store) notify(ev Event) {
	for _, fn := range s.watchers[ev.Kind] {
		fn := fn
		s.eng.Schedule(watchLatency, func() { fn(ev) })
	}
}

// labelsMatch reports whether obj labels satisfy the selector.
func labelsMatch(selector, labels map[string]string) bool {
	if len(selector) == 0 {
		return false
	}
	for k, v := range selector {
		if labels[k] != v {
			return false
		}
	}
	return true
}
