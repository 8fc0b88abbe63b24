// Command server demonstrates anonymization as a service: it starts the
// ldivd job server in-process on a loopback port and then acts as an HTTP
// client, walking the full API — submit a CSV table, poll the job, fetch the
// l-diverse release, resubmit to hit the result cache, and read the
// Prometheus counters. The same requests work with curl against a standalone
// `go run ./cmd/ldivd` (see the README's "Running the server" section).
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"

	"ldiv/internal/service"
)

// patientsCSV is the microdata a client would POST: the hospital table of
// the paper's motivating example, extended to eight tuples so it is
// 2-eligible (no disease occurs more than 8/2 = 4 times).
const patientsCSV = `Age,Gender,Education,Disease
25,M,Bachelor,flu
27,F,Bachelor,cold
34,M,Master,flu
38,F,Master,cold
45,M,Doctorate,angina
47,F,Doctorate,flu
52,M,Bachelor,cold
58,F,Master,angina
`

func main() {
	log.SetFlags(0)

	// 1. Start the job server in-process on a random loopback port. A real
	//    deployment runs `ldivd -addr :8080` instead; everything below this
	//    block is plain HTTP and works identically against either.
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpServer := &http.Server{Handler: svc.Handler()}
	go func() { _ = httpServer.Serve(ln) }()
	defer httpServer.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("ldivd serving on", base)

	// 2. Submit the table: POST the CSV body, parameters in the query string.
	query := url.Values{
		"algo": {"tp+"},
		"l":    {"2"},
		"qi":   {"Age,Gender,Education"},
		"sa":   {"Disease"},
	}.Encode()
	job := postJob(base+"/v1/jobs?"+query, patientsCSV)
	fmt.Printf("submitted job %s (status %s)\n", job["id"], job["status"])

	// 3. Poll until the job finishes. Toy tables finish in microseconds, but
	//    the loop is what a client of a 600k-row job would run.
	id := job["id"].(string)
	for job["status"] == "queued" || job["status"] == "running" {
		time.Sleep(10 * time.Millisecond)
		job = getJSON(base + "/v1/jobs/" + id)
	}
	if job["status"] != "done" {
		log.Fatalf("job failed: %v", job["error"])
	}
	metrics := job["metrics"].(map[string]any)
	fmt.Printf("done: %v rows, %v stars, %v suppressed tuples, KL %.4f\n",
		metrics["rows"], metrics["stars"], metrics["suppressed_tuples"], metrics["kl_divergence"])

	// 4. Fetch the 2-diverse release as CSV.
	release := getText(base + "/v1/jobs/" + id + "/result")
	fmt.Println("\npublished table:")
	fmt.Print(release)

	// 5. Resubmit the identical table: the LRU result cache answers
	//    immediately, without recomputation.
	again := postJob(base+"/v1/jobs?"+query, patientsCSV)
	fmt.Printf("\nresubmitted: job %s served from cache = %v\n", again["id"], again["cached"])

	// 6. The operational counters back all of the above.
	fmt.Println("\nselected /metrics:")
	for _, line := range strings.Split(getText(base+"/metrics"), "\n") {
		if strings.HasPrefix(line, "ldivd_jobs_done_total") ||
			strings.HasPrefix(line, "ldivd_cache_hits_total") ||
			strings.HasPrefix(line, "ldivd_rows_anonymized_total") {
			fmt.Println(" ", line)
		}
	}
}

// postJob submits a CSV body and decodes the job JSON.
func postJob(u, csv string) map[string]any {
	resp, err := http.Post(u, "text/csv", strings.NewReader(csv))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		log.Fatalf("submit failed with %d: %s", resp.StatusCode, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		log.Fatal(err)
	}
	return out
}

// getJSON fetches a URL and decodes the JSON body.
func getJSON(u string) map[string]any {
	var out map[string]any
	if err := json.Unmarshal([]byte(getText(u)), &out); err != nil {
		log.Fatal(err)
	}
	return out
}

// getText fetches a URL and returns the body, failing on non-2xx statuses.
func getText(u string) string {
	resp, err := http.Get(u)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		log.Fatalf("GET %s failed with %d: %s", u, resp.StatusCode, body)
	}
	return string(body)
}
