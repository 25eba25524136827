package serve

import (
	"container/list"
	"sync"
)

// answerCache is a small LRU of recent answers keyed by (k, ε).
// Entries are invalidated wholesale when the resident sample grows (a
// new epoch can only improve certificates, and serving mixed-epoch
// answers would break the answers-are-deterministic-per-epoch
// contract).
type answerCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *cacheEntry
	byKey map[cacheKey]*list.Element
	epoch uint64
}

type cacheKey struct {
	k   int
	eps float64
}

type cacheEntry struct {
	key cacheKey
	ans *Answer
}

func newAnswerCache(capacity int) *answerCache {
	if capacity < 0 {
		capacity = 0
	}
	return &answerCache{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[cacheKey]*list.Element),
	}
}

func (c *answerCache) get(k int, eps float64) (*Answer, bool) {
	if c.cap == 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[cacheKey{k, eps}]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).ans, true
}

// put stores an answer, evicting stale epochs first: a growth between
// this answer's selection and an older cached one makes the older one
// unreachable anyway (queries re-resolve on the new epoch).
func (c *answerCache) put(k int, eps float64, ans *Answer) {
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ans.Epoch != c.epoch {
		if ans.Epoch < c.epoch {
			return // raced with a grower; don't serve pre-growth answers
		}
		c.order.Init()
		clear(c.byKey)
		c.epoch = ans.Epoch
	}
	key := cacheKey{k, eps}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).ans = ans
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, ans: ans})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
	}
}

// advance flushes all entries older than the given epoch; the grower
// calls it right after publishing a new epoch so get never serves a
// pre-growth answer.
func (c *answerCache) advance(epoch uint64) {
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch > c.epoch {
		c.order.Init()
		clear(c.byKey)
		c.epoch = epoch
	}
}

func (c *answerCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
