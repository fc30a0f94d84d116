package serve

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/matex-sim/matex/internal/job"
)

// TestPublishReachesSubscriber: on one processor, a producer that never
// blocks between samples — an integrator — hands every sample to the stream
// writer it woke before it computes the next one. Without the yield in
// publish the writer runs only when the runtime preempts the producer, every
// 10 ms, so with 2 ms between samples about one in five arrives in time.
func TestPublishReachesSubscriber(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const samples, gap, want = 60, 2 * time.Millisecond, 54

	j := newJob("job-1", JobSpec{}, nil)
	var seen atomic.Int64
	ready, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		i := 0
		for {
			batch, state, ch := j.snapshotFrom(i)
			i += len(batch)
			seen.Store(int64(i))
			if i == 0 {
				close(ready)
			}
			if state.Terminal() {
				return
			}
			<-ch
		}
	}()
	<-ready

	row := []float64{1, 2, 3, 4}
	inTime := 0
	for k := 0; k < samples; k++ {
		if k > 0 && seen.Load() >= int64(k) {
			inTime++ // sample k-1 reached the subscriber before sample k
		}
		j.appendSample("", float64(k), row)
		for start := time.Now(); time.Since(start) < gap; {
			// busy: the producer computes the next sample without blocking
		}
	}
	if seen.Load() >= samples {
		inTime++
	}
	j.finish(&job.Outcome{}, nil)
	<-done
	t.Logf("%d of %d samples reached the subscriber in time", inTime, samples)
	if inTime < want {
		t.Errorf("%d of %d samples reached the subscriber before the next was published, want at least %d", inTime, samples, want)
	}
}
