package stream

import "testing"

func TestTokenBucketBasics(t *testing.T) {
	b := NewTokenBucket(100)
	if b.Capacity() != 100 || b.Tokens() != 100 {
		t.Fatalf("init: %+v", b)
	}
	if n := b.FitCount(20, 10); n != 5 {
		t.Fatalf("100 tokens fit %d records at cost 20, want 5", n)
	}
	b.ConsumeN(20, 3)
	if n := b.FitCount(50, 10); n != 0 {
		t.Fatalf("40 tokens fit %d records at cost 50, want 0", n)
	}
	if b.Used() != 60 {
		t.Fatalf("used = %v", b.Used())
	}
	if b.SpareFraction() != 0.4 {
		t.Fatalf("spare = %v", b.SpareFraction())
	}
	b.Refill()
	if b.Tokens() != 100 {
		t.Fatal("refill failed")
	}
}

func TestTokenBucketSetCapacity(t *testing.T) {
	b := NewTokenBucket(100)
	b.SetCapacity(50)
	if b.Tokens() != 50 {
		t.Fatalf("tokens after shrink = %v", b.Tokens())
	}
	b.SetCapacity(200)
	if b.Tokens() != 50 {
		t.Fatal("grow must not mint tokens mid-epoch")
	}
	b.Refill()
	if b.Tokens() != 200 {
		t.Fatal("refill to new capacity")
	}
	b.SetCapacity(-5)
	if b.Capacity() != 0 || b.SpareFraction() != 0 {
		t.Fatal("negative capacity should clamp to zero")
	}
}

func TestTokenBucketEdgeCases(t *testing.T) {
	b := NewTokenBucket(-10)
	if b.Capacity() != 0 {
		t.Fatal("negative capacity clamp")
	}
	if n := b.FitCount(0, 7); n != 7 {
		t.Fatalf("zero cost should fit the whole limit even on an empty bucket, got %d", n)
	}
	b.ConsumeN(-1, 3) // ignored
	if b.Used() != 0 {
		t.Fatal("negative cost must not charge")
	}
}
