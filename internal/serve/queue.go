package serve

import "container/heap"

// jobQueue is the campaign priority queue: higher Priority pops first,
// FIFO (submission sequence) within a priority. It is guarded by the
// server mutex.
type jobQueue struct {
	items []*job
}

// Len reports the queued-job count.
func (q *jobQueue) Len() int { return len(q.items) }

// before is the queue order: priority descending, then sequence
// ascending.
func (q *jobQueue) before(a, b *job) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
}

// push enqueues a job.
func (q *jobQueue) push(j *job) { heap.Push((*jobHeap)(q), j) }

// pop dequeues the first job in queue order that held does not keep back
// (nil when there is none). A held job stays queued — it keeps its place,
// its queue position and its share of MaxQueue — so the heap's head is the
// answer unless it is held, and only then is the queue scanned.
func (q *jobQueue) pop(held func(*job) bool) *job {
	if len(q.items) == 0 {
		return nil
	}
	next := q.items[0]
	if held(next) {
		next = nil
		for _, j := range q.items {
			if !held(j) && (next == nil || q.before(j, next)) {
				next = j
			}
		}
		if next == nil {
			return nil
		}
	}
	return heap.Remove((*jobHeap)(q), next.heapIndex).(*job)
}

// position returns a job's 1-based run position among queued jobs, or 0
// when it is not queued. Linear scan — status is not a hot path.
func (q *jobQueue) position(j *job) int {
	found := false
	pos := 1
	for _, other := range q.items {
		if other == j {
			found = true
			continue
		}
		if q.before(other, j) {
			pos++
		}
	}
	if !found {
		return 0
	}
	return pos
}

// jobHeap adapts jobQueue to container/heap.
type jobHeap jobQueue

func (h *jobHeap) Len() int { return len(h.items) }
func (h *jobHeap) Less(a, b int) bool {
	return (*jobQueue)(h).before(h.items[a], h.items[b])
}
func (h *jobHeap) Swap(a, b int) {
	h.items[a], h.items[b] = h.items[b], h.items[a]
	h.items[a].heapIndex = a
	h.items[b].heapIndex = b
}
func (h *jobHeap) Push(x any) {
	j := x.(*job)
	j.heapIndex = len(h.items)
	h.items = append(h.items, j)
}
func (h *jobHeap) Pop() any {
	last := len(h.items) - 1
	j := h.items[last]
	h.items[last] = nil
	h.items = h.items[:last]
	j.heapIndex = -1
	return j
}
