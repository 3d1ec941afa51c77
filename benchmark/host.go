package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed probe.
//
// This sandbox's vCPUs run anywhere between full and half speed, depending
// on what else their physical cores are doing, for seconds to tens of
// minutes at a time (README.md has the measurements). Identical work then
// takes up to twice as long, and no statistic over a run's own timings can
// tell a slow program from a slow host. So the harness times a small fixed
// kernel right beside the work it measures — a lagged dot product over two
// 32 KiB arrays, the shape of the ACF update that dominates this system,
// chosen because an arithmetic-only kernel did not feel the cache
// contention that is the commoner disturbance here — and divides the
// work's time by how much slower than calRef the kernel ran. Every gated
// timing is therefore "at reference host speed"; the as-timed whole-run
// numbers are reported beside them, ungated.
//
// The kernel sees a vCPU that runs slowly. It does not see one that does
// not run: the hypervisor takes the vCPUs away for milliseconds at a time
// (steal time; on a bad day half to three quarters of what the guest asks
// for, when the same query-cold run completes 6,000 to 15,000 reads and not
// 80,000), and a 68 us kernel mostly falls between two such gaps. Two more
// things are done about that. The in-process workload is timed on its thread's CPU clock, which
// the guest kernel does not advance while the vCPU is stolen. The server
// workloads sample /proc/stat for the share of the asked-for CPU time the
// guest did get; see withheld, cpuSlowdown and requestSlowdown for what is
// corrected by it and how.
const (
	calLen  = 4096
	calLags = 24
	// calRef is the kernel's time on an undisturbed vCPU of the host the
	// benchmark was defined on. On another host every factor is off by the
	// same ratio, which cancels in any comparison of two runs.
	calRef = 68 * time.Microsecond
	// probeEvery is the pause between two kernel runs of a probe thread:
	// about 1% of the vCPU it watches.
	probeEvery = 8 * time.Millisecond
	// stealEvery is the pause between two readings of /proc/stat, which
	// counts in ticks of 10 ms per vCPU.
	stealEvery = 50 * time.Millisecond
)

var (
	calA, calB [calLen + calLags]float64
	calSink    float64
)

func init() {
	for i := range calA {
		calA[i] = math.Sin(float64(i))
		calB[i] = math.Cos(float64(i))
	}
}

func calDot(lags int) float64 {
	s := 0.0
	for l := 0; l < lags; l++ {
		for j := 0; j < calLen; j++ {
			s += calA[j] * calB[j+l]
		}
	}
	return s
}

// calibrate runs the kernel once and returns its wall time. One untimed
// lag first, so that the timed part finds the arrays where the measured
// work's own inner loops find theirs: in cache.
func calibrate() time.Duration {
	calSink = calDot(1)
	start := time.Now()
	calSink += calDot(calLags)
	return time.Since(start)
}

// threadCPU is the CPU time the calling thread has used. The caller holds
// runtime.LockOSThread. The guest kernel does not count time during which
// the hypervisor had the vCPU, nor time another thread had it, so a
// difference of two readings is what the work in between cost, not how long
// the thread waited to do it.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calibrateCPU is calibrate on the thread's CPU clock.
func calibrateCPU() time.Duration {
	calSink = calDot(1)
	start := threadCPU()
	calSink += calDot(calLags)
	return threadCPU() - start
}

// slowdown is how many times slower than calRef a kernel time is.
func slowdown(cal time.Duration) float64 { return float64(cal) / float64(calRef) }

// hostProbe runs the kernel every probeEvery on one thread pinned to each
// CPU and reads the guest's CPU accounting every stealEvery while a server
// workload runs, so that any interval of the run can be asked how slow the
// host was during it and how much of the CPU time asked for it withheld.
type hostProbe struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	cpus  []probeLog
	steal stealLog
}

// stealLog is the "cpu" line of /proc/stat over time, in ticks summed over
// the CPUs: busy (user, nice, system, irq, softirq) and stolen.
type stealLog struct {
	mu          sync.Mutex
	at          []time.Time
	busy, steal []int64
}

func (l *stealLog) sample() {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return
	}
	var f [8]int64 // user nice system idle iowait irq softirq steal
	if n, _ := fmt.Sscanf(string(data), "cpu %d %d %d %d %d %d %d %d", &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]); n != len(f) {
		return
	}
	l.mu.Lock()
	l.at = append(l.at, time.Now())
	l.busy = append(l.busy, f[0]+f[1]+f[2]+f[5]+f[6])
	l.steal = append(l.steal, f[7])
	l.mu.Unlock()
}

type probeLog struct {
	mu  sync.Mutex
	at  []time.Time
	cal []time.Duration
}

func startHostProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{}), cpus: make([]probeLog, runtime.NumCPU())}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		for {
			p.steal.sample()
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	for cpu := range p.cpus {
		p.wg.Add(1)
		go func(log *probeLog, cpu int) {
			defer p.wg.Done()
			// The thread is dedicated to the probe and dies with the
			// goroutine (no UnlockOSThread), so the pinning cannot leak.
			runtime.LockOSThread()
			pinToCPU(cpu) // best effort: unpinned, the probe still samples the host
			tick := time.NewTicker(probeEvery)
			defer tick.Stop()
			for {
				d := calibrate()
				log.mu.Lock()
				log.at = append(log.at, time.Now())
				log.cal = append(log.cal, d)
				log.mu.Unlock()
				select {
				case <-p.stop:
					return
				case <-tick.C:
				}
			}
		}(&p.cpus[cpu], cpu)
	}
	return p
}

func (p *hostProbe) close() {
	close(p.stop)
	p.wg.Wait()
}

// slowdown is how slow the host was during [from, to] (stretched to the
// nearest samples when the interval holds none): per CPU the lower quartile
// of the kernel times — an interrupt or a preemption lengthens single
// samples, a slow host lengthens them all — and the mean of that over the
// CPUs, over calRef.
func (p *hostProbe) slowdown(from, to time.Time) float64 {
	sum, n := 0.0, 0
	for i := range p.cpus {
		log := &p.cpus[i]
		log.mu.Lock()
		lo := sort.Search(len(log.at), func(i int) bool { return !log.at[i].Before(from) })
		hi := sort.Search(len(log.at), func(i int) bool { return log.at[i].After(to) })
		if lo == hi { // a short interval between two samples: take both
			lo, hi = max(lo-1, 0), min(hi+1, len(log.at))
		}
		cals := append([]time.Duration(nil), log.cal[lo:hi]...)
		log.mu.Unlock()
		if len(cals) == 0 {
			continue
		}
		sort.Slice(cals, func(i, j int) bool { return cals[i] < cals[j] })
		sum += slowdown(cals[len(cals)/4])
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// withheld is how much longer CPU-bound work took during [from, to] because
// the hypervisor had the vCPUs: the CPU time the guest asked for (ran plus
// stolen) over the time it ran, from the readings around the interval. 1 on
// a host that accounts no steal.
func (p *hostProbe) withheld(from, to time.Time) float64 {
	l := &p.steal
	l.mu.Lock()
	defer l.mu.Unlock()
	// The last reading at or before from, the first at or after to.
	lo := sort.Search(len(l.at), func(i int) bool { return l.at[i].After(from) }) - 1
	hi := sort.Search(len(l.at), func(i int) bool { return !l.at[i].Before(to) })
	lo, hi = max(lo, 0), min(hi, len(l.at)-1)
	if hi <= lo {
		return 1
	}
	busy, steal := l.busy[hi]-l.busy[lo], l.steal[hi]-l.steal[lo]
	if busy <= 0 || steal < 0 {
		return 1
	}
	return float64(busy+steal) / float64(busy)
}

// cpuSlowdown is how much longer CPU-bound work took during [from, to] than
// on an undisturbed host: slower vCPUs times withheld vCPUs.
func (p *hostProbe) cpuSlowdown(from, to time.Time) float64 {
	return p.slowdown(from, to) * p.withheld(from, to)
}

// requestSlowdown is how much longer the median request of the closed
// loops of query-cold and serve-mixed (0.2 ms) took during [from, to]:
// slower vCPUs times the square root of withheld. A gap of milliseconds
// lengthens the one request it hits, not the median, so the median does not
// grow with withheld itself; it does grow, because the requests after a gap
// find the caches cold and a peer that has to be woken up on a vCPU the host
// must first schedule. The square root is a fit, not a model. query-cold,
// two sets of 24 runs with withheld from 1.0 to 3.4: the median's quartile
// spread was 0.28 and 0.18 by slowdown alone, 0.08 and 0.07 with the root,
// 0.26 and 0.28 with withheld to the first power. serve-mixed, three sets
// with withheld from 1.0 to 2.4: 0.07, 0.14 and 0.17 by slowdown alone,
// 0.16, 0.07 and 0.08 with the root. A loop's rate loses the withheld time
// as well: it is corrected by requestSlowdown times withheld (query-cold:
// 0.33 and 0.37 by cpuSlowdown, 0.11 and 0.16 so; 0.62 by slowdown alone).
func (p *hostProbe) requestSlowdown(from, to time.Time) float64 {
	return p.slowdown(from, to) * math.Sqrt(p.withheld(from, to))
}

// pinToCPU restricts the calling thread to one CPU.
func pinToCPU(cpu int) {
	var mask [16]uint64 // 1024 CPUs
	mask[cpu/64] |= 1 << (cpu % 64)
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
}
