package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fleaflicker/internal/service"
)

// respWith builds an *http.Response the way a server would send it, via a
// real round trip, so header canonicalization and body framing match
// production exactly.
func respWith(t *testing.T, status int, header map[string]string, body string) *http.Response {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for k, v := range header {
			w.Header().Set(k, v)
		}
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestDecodeErrorRetryHintParsing(t *testing.T) {
	cases := []struct {
		name   string
		status int
		header map[string]string
		body   string
		want   time.Duration
		msg    string
	}{
		{
			// The current wire format: the hint under its canonical name.
			name:   "new name",
			status: http.StatusTooManyRequests,
			body:   `{"error":"queue full","retryAfterSeconds":3}`,
			want:   3 * time.Second,
			msg:    "queue full",
		},
		{
			// A draining server sends the same hint on a 503.
			name:   "draining",
			status: http.StatusServiceUnavailable,
			body:   `{"error":"draining","retryAfterSeconds":2}`,
			want:   2 * time.Second,
			msg:    "draining",
		},
		{
			// No body hint at all: fall back to the Retry-After header.
			name:   "header only",
			status: http.StatusTooManyRequests,
			header: map[string]string{"Retry-After": "6"},
			body:   `{"error":"queue full"}`,
			want:   6 * time.Second,
			msg:    "queue full",
		},
		{
			// Body hint beats the header when both are present.
			name:   "body hint beats header",
			status: http.StatusTooManyRequests,
			header: map[string]string{"Retry-After": "9"},
			body:   `{"error":"queue full","retryAfterSeconds":1}`,
			want:   1 * time.Second,
			msg:    "queue full",
		},
		{
			// Unparseable body: raw text becomes the message, no hint.
			name:   "non-JSON body",
			status: http.StatusInternalServerError,
			body:   "boom",
			want:   0,
			msg:    "boom",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			he := DecodeError(respWith(t, tc.status, tc.header, tc.body))
			if he.Status != tc.status {
				t.Errorf("status = %d, want %d", he.Status, tc.status)
			}
			if he.RetryAfter != tc.want {
				t.Errorf("retry hint = %v, want %v", he.RetryAfter, tc.want)
			}
			if he.Msg != tc.msg {
				t.Errorf("msg = %q, want %q", he.Msg, tc.msg)
			}
		})
	}
}

func TestHTTPErrorBackpressured(t *testing.T) {
	for status, want := range map[int]bool{
		http.StatusTooManyRequests:     true,
		http.StatusServiceUnavailable:  true,
		http.StatusBadRequest:          false,
		http.StatusInternalServerError: false,
	} {
		he := &HTTPError{Status: status}
		if he.Backpressured() != want {
			t.Errorf("Backpressured(%d) = %v, want %v", status, !want, want)
		}
	}
}

func TestNormalizeBaseURL(t *testing.T) {
	cases := map[string]string{
		"localhost:8080":         "http://localhost:8080",
		"http://localhost:8080/": "http://localhost:8080",
		" https://a.example/ ":   "https://a.example",
		"http://a.example":       "http://a.example",
	}
	for in, want := range cases {
		if got := NormalizeBaseURL(in); got != want {
			t.Errorf("NormalizeBaseURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSubmitJobRetryBackoff drives the retry loop against a server that
// backpressures twice before admitting, and checks the policy's pause cap and observer.
func TestSubmitJobRetryBackoff(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1, 2:
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full","retryAfterSeconds":1}`))
		default:
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"id":"j-1","state":"queued","location":"/v1/jobs/j-1","total_units":1}`))
		}
	}))
	defer srv.Close()

	var pauses []time.Duration
	c := New(srv.URL)
	ack, err := c.SubmitJobRetry(context.Background(), service.JobSpec{Model: "2P", Bench: "300.twolf"},
		RetryPolicy{
			MaxRetries:     5,
			MaxWait:        time.Millisecond,
			OnBackpressure: func(d time.Duration) { pauses = append(pauses, d) },
		})
	if err != nil {
		t.Fatalf("SubmitJobRetry: %v", err)
	}
	if ack.ID != "j-1" || ack.Location != "/v1/jobs/j-1" {
		t.Errorf("ack = %+v", ack)
	}
	if len(pauses) != 2 {
		t.Fatalf("observed %d backpressure pauses, want 2", len(pauses))
	}
	for i, d := range pauses {
		if d != time.Millisecond {
			t.Errorf("pause %d = %v, want the 1ms cap applied to the 1s hint", i, d)
		}
	}
}

// TestSubmitJobRetryExhausted checks the bounded-retry failure path: a
// persistently full server fails the submission instead of looping forever.
func TestSubmitJobRetryExhausted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"draining","retryAfterSeconds":1}`))
	}))
	defer srv.Close()

	c := New(srv.URL)
	_, err := c.SubmitJobRetry(context.Background(), service.JobSpec{Model: "2P", Bench: "300.twolf"},
		RetryPolicy{MaxRetries: 2, MaxWait: time.Millisecond})
	if err == nil {
		t.Fatal("expected exhaustion error")
	}
	var he *HTTPError
	if !errors.As(err, &he) || !he.Backpressured() {
		t.Errorf("error should wrap the backpressured HTTPError, got %v", err)
	}
}
