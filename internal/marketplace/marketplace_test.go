package marketplace

import (
	"errors"
	"testing"
)

func TestHITLifecycle(t *testing.T) {
	m := New(1, 5, true)
	if !m.sandbox {
		t.Fatalf("sandbox flag lost")
	}
	h, err := m.CreateHIT("Collect soccer players", "/ws/abc", 3)
	if err != nil {
		t.Fatalf("CreateHIT: %v", err)
	}
	if h.ID == "" || h.ExternalURL != "/ws/abc" {
		t.Fatalf("HIT = %+v", h)
	}
	if _, err := m.CreateHIT("x", "y", 0); err == nil {
		t.Fatalf("zero assignments should fail")
	}

	// Three workers accept; the fourth is rejected.
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		w, err := m.Accept(h.ID)
		if err != nil {
			t.Fatalf("Accept %d: %v", i, err)
		}
		if seen[w] {
			t.Fatalf("worker %s accepted twice", w)
		}
		seen[w] = true
	}
	if _, err := m.Accept(h.ID); !errors.Is(err, ErrHITFull) {
		t.Fatalf("full HIT err = %v", err)
	}
	if got := m.hits[h.ID].Accepted; len(got) != 3 {
		t.Fatalf("accepted = %v, want 3 workers", got)
	}
	if _, err := m.Accept("nope"); !errors.Is(err, ErrNoSuchHIT) {
		t.Fatalf("missing HIT err = %v", err)
	}
}

func TestExpire(t *testing.T) {
	m := New(1, 5, true)
	h, _ := m.CreateHIT("x", "y", 5)
	if err := m.Expire(h.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Accept(h.ID); !errors.Is(err, ErrHITExpired) {
		t.Fatalf("expired accept err = %v", err)
	}
	if err := m.Expire("nope"); !errors.Is(err, ErrNoSuchHIT) {
		t.Fatalf("expire missing err = %v", err)
	}
}

func TestPayments(t *testing.T) {
	m := New(1, 3, true)
	h, _ := m.CreateHIT("x", "y", 3)
	w, err := m.Accept(h.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PayBonus(w, 2.5, "run 1"); err != nil {
		t.Fatalf("PayBonus: %v", err)
	}
	if err := m.PayBonus(w, 1.0, "run 2"); err != nil {
		t.Fatal(err)
	}
	if got := m.balance[w]; got != 3.5 {
		t.Fatalf("balance = %v", got)
	}
	if got := m.ledger; len(got) != 2 || got[0].Reason != "run 1" || got[0].Amount+got[1].Amount != 3.5 {
		t.Fatalf("ledger = %+v", got)
	}
	if err := m.PayBonus(w, 0, "zero"); !errors.Is(err, ErrBadAmount) {
		t.Fatalf("zero payment err = %v", err)
	}
	if err := m.PayBonus("stranger", 1, "x"); !errors.Is(err, ErrUnknownWork) {
		t.Fatalf("unknown worker err = %v", err)
	}
	if _, ok := m.balance[w]; len(m.balance) != 1 || !ok {
		t.Fatalf("workers = %v, want only %s", m.balance, w)
	}
}

func TestPoolExhaustion(t *testing.T) {
	m := New(1, 2, true)
	h, _ := m.CreateHIT("x", "y", 10)
	if _, err := m.Accept(h.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Accept(h.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Accept(h.ID); err == nil {
		t.Fatalf("pool exhaustion should fail")
	}
}

func TestArrivalOrderSeeded(t *testing.T) {
	a := New(7, 10, true)
	b := New(7, 10, true)
	ha, _ := a.CreateHIT("x", "y", 10)
	hb, _ := b.CreateHIT("x", "y", 10)
	for i := 0; i < 5; i++ {
		wa, _ := a.Accept(ha.ID)
		wb, _ := b.Accept(hb.ID)
		if wa != wb {
			t.Fatalf("same seed should give same arrival order: %s vs %s", wa, wb)
		}
	}
}

func TestRegisterOutOfBandWorker(t *testing.T) {
	m := New(1, 2, true)
	m.Register("local-volunteer")
	if err := m.PayBonus("local-volunteer", 1.5, "direct"); err != nil {
		t.Fatalf("PayBonus after Register: %v", err)
	}
	// Register is idempotent and never clears a balance.
	m.Register("local-volunteer")
	if got := m.balance["local-volunteer"]; got != 1.5 {
		t.Fatalf("balance = %v", got)
	}
}
