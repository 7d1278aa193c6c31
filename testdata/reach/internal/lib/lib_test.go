package lib

import "testing"

func TestConfig(t *testing.T) {
	if (Config{TestOnly: 1}).TestOnly != 1 {
		t.Fatal("TestOnly")
	}
}
