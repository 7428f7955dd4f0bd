package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"doppelganger/internal/server"
)

// payloadDigests holds the SHA-256 (first 16 hex digits) of every universe
// cell's payload, recorded with the benchmark. Every payload a run receives
// must match its cell's entry.
//
//go:embed payloads.json
var payloadDigestsJSON []byte

// sweepd is one running server process.
type sweepd struct {
	cmd  *exec.Cmd
	addr string
	out  *lockedBuffer
}

// lockedBuffer collects a child's output while it runs.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startSweepd starts sweepd with its defaults over the trace directory and
// waits until it reports ready. Only the listen address and the workload
// scale are set; stderr receives its log when quiet is false.
func (r *run) startSweepd(dir string, quiet bool, stderr io.Writer) (*sweepd, error) {
	args := []string{"-addr", "127.0.0.1:0", "-scale", scaleArg, "-trace-dir", dir}
	if quiet {
		args = append(args, "-quiet")
	}
	s := &sweepd{cmd: r.command("sweepd", args...), out: &lockedBuffer{}}
	s.cmd.Stdout = s.out
	s.cmd.Stderr = stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if s.addr == "" {
			if _, rest, ok := strings.Cut(s.out.String(), "listening on "); ok {
				if line, _, ok := strings.Cut(rest, "\n"); ok {
					s.addr = strings.TrimSpace(line)
				}
			}
		} else if resp, err := http.Get("http://" + s.addr + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.kill()
	return nil, fmt.Errorf("sweepd did not become ready within 60 s (stdout %q)", s.out.String())
}

// stop drains sweepd with SIGTERM, as an operator would, and waits for it.
func (s *sweepd) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.cmd.Wait()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("sweepd did not drain within 60 s")
	}
}

func (s *sweepd) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// get reads one of sweepd's endpoints.
func (s *sweepd) get(path string) ([]byte, error) {
	resp, err := http.Get("http://" + s.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// response is the part of a job result the benchmark reads.
type response struct {
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
	Cached  bool            `json:"cached"`
}

// reply is one submission's outcome as the client saw it.
type reply struct {
	job     server.Cell
	latency time.Duration
	status  int
	resp    response
	err     error
}

// drive submits jobs to sweepd in a closed loop: conns connections, each
// sending its next job only when the previous reply has arrived, taking jobs
// in stream order. A repeat of an earlier job is held until that job's
// first submission has been answered, so it finds the result in the memo
// and never joins the computation still in flight. It returns when every
// job has been answered.
func drive(addr string, jobs []server.Cell, conns int) []reply {
	client := &http.Client{
		Timeout:   150 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
	defer client.CloseIdleConnections()
	// first[i] is the index of job i's first submission; answered[i] is
	// closed once a first submission's reply has arrived.
	first := make([]int, len(jobs))
	answered := make([]chan struct{}, len(jobs))
	firstOf := map[server.Cell]int{}
	for i, j := range jobs {
		f, seen := firstOf[j]
		if !seen {
			f = i
			firstOf[j] = i
			answered[i] = make(chan struct{})
		}
		first[i] = f
	}
	replies := make([]reply, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if f := first[i]; f != i {
					<-answered[f]
				}
				replies[i] = submit(client, addr, jobs[i])
				if answered[i] != nil {
					close(answered[i])
				}
			}
		}()
	}
	wg.Wait()
	return replies
}

func submit(client *http.Client, addr string, job server.Cell) reply {
	rep := reply{job: job}
	body, err := json.Marshal(job)
	if err != nil {
		rep.err = err
		return rep
	}
	start := time.Now()
	resp, err := client.Post("http://"+addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rep.err = err
		return rep
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.latency = time.Since(start)
	rep.status = resp.StatusCode
	switch {
	case err != nil:
		rep.err = err
	case resp.StatusCode != http.StatusOK:
		rep.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	default:
		rep.err = json.Unmarshal(data, &rep.resp)
	}
	return rep
}

// payloadChecker holds the reference payload of every cell: the stored
// digests, and the bytes the run's recording pass received.
type payloadChecker struct {
	digests  map[string]string
	recorded map[string][]byte
}

func newPayloadChecker() (*payloadChecker, error) {
	pc := &payloadChecker{recorded: map[string][]byte{}}
	if err := json.Unmarshal(payloadDigestsJSON, &pc.digests); err != nil {
		return nil, fmt.Errorf("payloads.json: %w", err)
	}
	return pc, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// check returns why a reply is wrong, or "" when it is right: it must be a
// 200 whose key is the job's, whose payload matches the stored digest and,
// once the recording pass has seen the cell, is byte-identical to the
// recording pass's payload.
func (pc *payloadChecker) check(rep reply) string {
	key := rep.job.Key()
	switch {
	case rep.status == http.StatusTooManyRequests:
		return "shed with 429: the stream must stay under the admission rate"
	case rep.err != nil:
		return rep.err.Error()
	case rep.resp.Key != key:
		return fmt.Sprintf("answered for key %q", rep.resp.Key)
	}
	if want, ok := pc.digests[key]; !ok || digest(rep.resp.Payload) != want {
		return fmt.Sprintf("payload digest %s, stored %q", digest(rep.resp.Payload), want)
	}
	if rec, ok := pc.recorded[key]; ok && !bytes.Equal(rec, rep.resp.Payload) {
		return "payload differs from the recording pass's"
	}
	return ""
}

// score checks every reply, counting each submission as attempted and each
// wrong or refused one as failed.
func (r *run) score(pc *payloadChecker, what string, replies []reply) {
	for _, rep := range replies {
		r.attempted++
		if why := pc.check(rep); why != "" {
			r.fail(1, "%s: %s: %s", what, rep.job.Key(), why)
		}
	}
}

// conns is the closed loop's connection count: one per CPU, so the
// client keeps every sweepd worker CPU busy without queueing behind itself.
func conns() int { return runtime.NumCPU() }

// recordPass starts sweepd over an empty directory, submits every distinct
// cell of the stream once (each runs live and records its capture), and
// drains the server; it returns how long that took. The payloads become
// the reference every later reply must repeat byte for byte.
func (r *run) recordPass(pc *payloadChecker, what, dir string, distinct []server.Cell) (float64, error) {
	start := time.Now()
	s, err := r.startSweepd(dir, true, os.Stderr)
	if err != nil {
		return 0, err
	}
	replies := drive(s.addr, distinct, conns())
	if err := s.stop(); err != nil {
		return 0, fmt.Errorf("sweepd: %w", err)
	}
	took := time.Since(start).Seconds()
	fmt.Printf("%s: %d cells: %.3f s\n", what, len(distinct), took)
	r.score(pc, what, replies)
	for _, rep := range replies {
		if rep.err == nil {
			pc.recorded[rep.job.Key()] = rep.resp.Payload
		}
	}
	return took, nil
}

// serveSetup records the trace directory several times and reports the
// median recording time as setup_s. The last directory is returned for the
// timed phase.
func (r *run) serveSetup(pc *payloadChecker, distinct []server.Cell) (string, error) {
	var dir string
	var times []float64
	for i := 0; i < recordings; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return "", err
			}
		}
		dir = filepath.Join(r.work, fmt.Sprintf("serve-traces-%d", i))
		took, err := r.recordPass(pc, fmt.Sprintf("set-up %d: recording pass", i), dir, distinct)
		if err != nil {
			return "", err
		}
		times = append(times, took)
	}
	r.set("setup_s", median(times), "s")
	return dir, nil
}

// servePass is what one timed pass of the stream measured, and the
// server's own account of it: /v1/stats and the /metrics registry export.
type servePass struct {
	wall, cpu, rssMB, steal float64
	replies                 []reply
	stats                   serverStats
	metrics                 []byte
}

// serverStats is the part of sweepd's /v1/stats the benchmark reads.
type serverStats struct {
	Completed    uint64 `json:"completed"`
	CacheHits    uint64 `json:"cache_hits"`
	Computes     int64  `json:"computes"`
	ShedRate     uint64 `json:"shed_rate"`
	ShedQueue    uint64 `json:"shed_queue"`
	Retries      uint64 `json:"retries"`
	TraceReplays uint64 `json:"trace_replays"`
	TraceRecords uint64 `json:"trace_records"`
	Degraded     uint64 `json:"trace_degraded"`
	DecodedCache *struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
		Bytes     int64  `json:"bytes"`
	} `json:"decoded_cache"`
}

// servePassOnce restarts sweepd over the recorded directory (an empty memo
// and decoded-capture cache) and times one pass of the stream. sweepd's CPU
// time and peak RSS come from /proc/<pid>.
func (r *run) servePassOnce(dir string, jobs []server.Cell, quiet bool, stderr io.Writer) (*servePass, error) {
	s, err := r.startSweepd(dir, quiet, stderr)
	if err != nil {
		return nil, err
	}
	pid := s.cmd.Process.Pid
	cpu0, err0 := procCPUSeconds(pid)
	steal0, _ := stealSeconds()
	start := time.Now()
	replies := drive(s.addr, jobs, conns())
	wall := time.Since(start).Seconds()
	cpu1, err1 := procCPUSeconds(pid)
	steal1, _ := stealSeconds()
	rss, err2 := procPeakRSSMB(pid)
	p := &servePass{wall: wall, cpu: cpu1 - cpu0, rssMB: rss, steal: steal1 - steal0, replies: replies}
	stats, err3 := s.get("/v1/stats")
	if err3 == nil {
		err3 = json.Unmarshal(stats, &p.stats)
	}
	var err4 error
	p.metrics, err4 = s.get("/metrics")
	if err := errors.Join(err0, err1, err2, err3, err4); err != nil {
		s.kill()
		return nil, err
	}
	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("sweepd: %w", err)
	}
	return p, nil
}

// latencies splits a pass's successful replies into memo hits and
// responses computed by the request itself, in milliseconds.
func latencies(replies []reply) (computed, hits []float64) {
	for _, rep := range replies {
		if rep.err != nil {
			continue
		}
		ms := float64(rep.latency) / float64(time.Millisecond)
		if rep.resp.Cached {
			hits = append(hits, ms)
		} else {
			computed = append(computed, ms)
		}
	}
	return computed, hits
}

// printPercentiles prints a latency sample's median and 90th percentile
// with its size, or says which one the sample cannot support.
func printPercentiles(name string, ms []float64) {
	p50, ok50 := percentile(ms, 0.5)
	p90, ok90 := percentile(ms, 0.9)
	switch {
	case ok90:
		fmt.Printf("%s: p50 %.3f ms, p90 %.3f ms (n=%d)\n", name, p50, p90, len(ms))
	case ok50:
		fmt.Printf("%s: p50 %.3f ms (n=%d; too few samples for p90)\n", name, p50, len(ms))
	default:
		fmt.Printf("%s: n=%d, too few samples for any percentile\n", name, len(ms))
	}
}

// serveTimed is the untraced run: set-up, then passes of the stream, each
// against a freshly started sweepd and in its own order, until the timed
// phase is spent (at least two). Per-pass metrics are medians over passes;
// latency samples are pooled over passes.
func (r *run) serveTimed() error {
	pc, err := newPayloadChecker()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	distinct := drawCells(rng)
	dir, err := r.serveSetup(pc, distinct)
	if err != nil {
		return err
	}
	var walls, cpus, rss, rates, computed, hits []float64
	err = r.repeat(2, func(i int) error {
		jobs, _ := arrange(distinct, rng)
		p, err := r.servePassOnce(dir, jobs, true, os.Stderr)
		if err != nil {
			return err
		}
		r.score(pc, fmt.Sprintf("pass %d", i), p.replies)
		c, h := latencies(p.replies)
		computed = append(computed, c...)
		hits = append(hits, h...)
		ok := len(c) + len(h)
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		rss = append(rss, p.rssMB)
		rates = append(rates, float64(ok)/p.wall)
		fmt.Printf("pass %d: wall %.3f s, sweepd cpu %.3f s, peak rss %.1f MB, host steal %.2f s; "+
			"%.1f jobs/s at memo-hit ratio %.3f (%d of %d cached)\n",
			i, p.wall, p.cpu, p.rssMB, p.steal, float64(ok)/p.wall, float64(len(h))/float64(max(ok, 1)), len(h), ok)
		fmt.Printf("pass %d: served by %s\n", i, p.stats.servedBy(len(h)))
		return nil
	})
	if err != nil {
		return err
	}
	r.setMedians(walls, cpus, rss, rates)
	printPercentiles("compute latency (cached=false)", computed)
	printPercentiles("memo-hit latency (cached=true)", hits)
	return nil
}

// servedBy breaks down how a pass's cells were served, from sweepd's own
// counters: memo hits from the responses, and per capture load a
// decoded-cache hit, a file replay, a live recording or a degraded live run.
// Batched replay lanes are started only from the sweep engine's quality
// stage, which sweepd never runs, so none appear here.
func (st serverStats) servedBy(memoHits int) string {
	var dcHits uint64
	if st.DecodedCache != nil {
		dcHits = st.DecodedCache.Hits
	}
	return fmt.Sprintf("memo hit %d, computed %d; capture loads: decoded-cache hit %d, file replay %d, live record %d, degraded %d",
		memoHits, st.Computes, dcHits, st.TraceReplays-dcHits, st.TraceRecords, st.Degraded)
}

// writePayloadDigests records every universe cell once on a fresh sweepd
// and writes their payload digests, the reference payloads.json embeds. It
// is run by hand when the program's results change on purpose.
func (r *run) writePayloadDigests(path string) error {
	s, err := r.startSweepd(filepath.Join(r.work, "digest-traces"), true, os.Stderr)
	if err != nil {
		return err
	}
	replies := drive(s.addr, universe(), conns())
	if err := s.stop(); err != nil {
		return fmt.Errorf("sweepd: %w", err)
	}
	digests := map[string]string{}
	for _, rep := range replies {
		if rep.err != nil {
			return fmt.Errorf("%s: %w", rep.job.Key(), rep.err)
		}
		digests[rep.job.Key()] = digest(rep.resp.Payload)
	}
	b, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
